import random

import pytest

import oracles as o
from conftest import random_sample
from critset.graphs import (BipartitePartition, Graph, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            empty_graph, neighborhood, path_graph,
                            random_bipartite, vset)
from critset.matching import (Matching, maximum_matching_bipartite,
                              maximum_matching_general, saturating_matching)
from critset.ore import ore_profile


def saturated(m: Matching) -> int:
    """The vertices m's mate map matches."""
    return vset(v for v, w in enumerate(m.mate) if w != -1)


def check_valid_matching(g: Graph, m: Matching):
    used = 0
    for u, v in m.edges:
        assert g.adj[u] >> v & 1, f"({u},{v}) is not an edge"
        assert not used >> u & 1 and not used >> v & 1, "vertex reused"
        used |= 1 << u | 1 << v
    assert used == saturated(m)


# -- bipartite maximum matching ---------------------------------------------------

def test_bipartite_matching_known_sizes():
    g = complete_bipartite(3, 3)
    m = maximum_matching_bipartite(g, bipartition(g))
    assert len(m) == 3
    check_valid_matching(g, m)

    p4 = path_graph(4)
    assert len(maximum_matching_bipartite(p4, bipartition(p4))) == 2


def test_bipartite_matching_empty_side():
    g = empty_graph(3)
    m = maximum_matching_bipartite(g, bipartition(g))
    assert len(m) == 0 and saturated(m) == 0


def test_bipartite_matching_matches_oracle_exhaustively(graphs_n5):
    for g in graphs_n5:
        parts = bipartition(g)
        if parts is None:
            continue
        m = maximum_matching_bipartite(g, parts)
        check_valid_matching(g, m)
        assert len(m) == o.brute_profile(g.n, g.adj).mu


def test_bipartite_matching_rejects_bad_parts():
    g = path_graph(3)
    with pytest.raises(ValueError):
        maximum_matching_bipartite(g, bipartition(cycle_graph(4)))


@pytest.mark.parametrize("call", [maximum_matching_bipartite, ore_profile],
                         ids=["matching", "ore_profile"])
@pytest.mark.parametrize("side_a, side_b, message", [
    # path 0-1-2-3 with 0, 1 in B and 2, 3 in A: the inner B edge comes
    # first in vertex order, yet side_a is the one named
    (0b1100, 0b0011, "edge inside side_a"),
    (0b0001, 0b1110, "edge inside side_b"),
    (0b0111, 0b1100, "partition sides must split V"),
    (0b0101, 0b0010, "partition sides must split V"),
])
def test_bad_parts_are_named_in_a_fixed_order(call, side_a, side_b, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(path_graph(4), BipartitePartition(side_a, side_b))


# -- general maximum matching -----------------------------------------------------

def test_blossom_handles_odd_cycles():
    assert len(maximum_matching_general(cycle_graph(5))) == 2
    assert len(maximum_matching_general(cycle_graph(9))) == 4
    assert len(maximum_matching_general(complete_graph(6))) == 3


def test_blossom_matches_oracle_exhaustively(graphs_n5):
    for g in graphs_n5:
        m = maximum_matching_general(g)
        check_valid_matching(g, m)
        assert len(m) == o.brute_profile(g.n, g.adj).mu


def test_blossom_matches_oracle_on_random_graphs():
    for g in random_sample(40, 6, 9, seed=21):
        m = maximum_matching_general(g)
        check_valid_matching(g, m)
        assert len(m) == o.brute_profile(g.n, g.adj).mu


def test_matching_queries():
    g = path_graph(4)
    m = maximum_matching_general(g)
    assert len(m) == 2
    assert saturated(m) == g.full
    # the only perfect matching of P4 is {01, 23}
    assert m.edges == frozenset({(0, 1), (2, 3)})
    assert m.mate == (1, 0, 3, 2)
    assert repr(m) == "Matching([(0, 1), (2, 3)])"
    lonely = maximum_matching_general(path_graph(3))
    assert len(lonely) == 1
    assert saturated(lonely) != 0b111


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 2)], r"incident edges at \(1,2\)"),
    ([(1, 1)], "self-loop at vertex 1"),
    ([(-1, 0)], r"edge \(-1,0\) out of range for n=3"),
    ([(0, 5)], r"edge \(0,5\) out of range for n=3"),
    ([(0, 1), (3, 2)], r"edge \(3,2\) out of range for n=3"),
], ids=["incident", "self_loop", "negative", "past_n", "second_past_n"])
def test_checked_matching_rejects_pairs_that_are_not_a_matching(pairs,
                                                                message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Matching(3, pairs)


def seeded_graphs():
    yield from random_sample(30, 6, 40, seed=23)
    for a in (3, 5, 10, 17, 25):
        yield random_bipartite(a, 2 * a - 1, 0.2, seed=a)


def test_library_matchings_equal_checked_construction():
    # the producers wrap their mate arrays unchecked; the checked constructor
    # rebuilds the same object from the edges. The lower ends of a maximum
    # matching's edges can always be matched into the other vertices.
    for g in seeded_graphs():
        general = maximum_matching_general(g)
        lower = vset(u for u, _ in general.edges)
        built = [general, saturating_matching(g, lower, g.full & ~lower)[0]]
        parts = bipartition(g)
        if parts is not None:
            built.append(maximum_matching_bipartite(g, parts))
        for m in built:
            checked = Matching(g.n, sorted(m.edges))
            assert (m.n, m.edges, m.mate) == (
                checked.n, checked.edges, checked.mate)
            assert type(m.mate) is tuple and type(m.edges) is frozenset


# -- saturating matchings and Hall violators -------------------------------------------

def test_saturating_matching_success():
    g = complete_bipartite(2, 3)
    found, violator = saturating_matching(g, 0b00011, 0b11100)
    assert violator is None
    assert found is not None and saturated(found) & 0b00011 == 0b00011
    check_valid_matching(g, found)


def test_saturating_matching_trivial_empty_source():
    found, violator = saturating_matching(path_graph(3), 0, 0b101)
    assert violator is None and found is not None and len(found) == 0


def test_saturating_matching_failure_returns_hall_violator():
    # star K1,3: the three leaves cannot all be matched into the center
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    found, violator = saturating_matching(g, 0b1110, 0b0001)
    assert found is None and violator is not None
    assert violator & 0b1110 == violator and violator
    assert (neighborhood(g, violator) & 0b0001).bit_count() \
        < violator.bit_count()


@pytest.mark.parametrize("from_set, into", [
    (0b1000, 0b010), (0b001, 0b1010), (-1, 0), (0b001, -0b100)])
def test_saturating_matching_rejects_masks_past_n(from_set, into):
    # the message neighborhood gives for the first mask that leaves 0..n-1
    bad = from_set if from_set >> 3 else into
    with pytest.raises(ValueError,
                       match=f"^vertex set {bin(bad)} not within 0..2$"):
        saturating_matching(path_graph(3), from_set, into)
    # within 0..n-1, the two sets must not overlap
    with pytest.raises(ValueError,
                       match="^from_set and into must be disjoint$"):
        saturating_matching(path_graph(3), 0b011, 0b110)


def test_hall_violator_is_sound_on_random_pairs(graphs_n5):
    # the surplus |B| - |N(B) & into| is supermodular, so its maximizers are
    # closed under intersection; the violator is the least of them, and a
    # matching comes back exactly when the largest surplus is 0
    rng = random.Random(4)
    violators = 0
    for g in graphs_n5:
        for _ in range(3):
            x = rng.randrange(1 << g.n)
            y = g.full & ~x
            surplus = {}
            b = x
            while True:  # every submask of x, x itself first
                surplus[b] = b.bit_count() - (neighborhood(g, b)
                                              & y).bit_count()
                if not b:
                    break
                b = (b - 1) & x
            top = max(surplus.values())
            found, violator = saturating_matching(g, x, y)
            if found is None:
                violators += 1
                assert (neighborhood(g, violator) & y).bit_count() \
                    < violator.bit_count()
                assert violator & x == violator
                assert surplus[violator] == top > 0
                assert [b for b, s in surplus.items()
                        if s == top and b & violator != violator] == []
            else:
                assert top == 0
                assert saturated(found) & x == x
                check_valid_matching(g, found)
    assert violators > 1000
