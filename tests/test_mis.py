import random

import pytest

import oracles as o
from conftest import random_bipartite, random_sample
from critset.fixtures import load
from critset.graphs import (Graph, LimitExceeded, bipartition,
                            complete_bipartite, complete_graph, cycle_graph,
                            empty_graph, parse_graph, path_graph,
                            random_graph)
from critset.matching import maximum_matching_bipartite
from critset import oracle
from critset.mis import alpha
from critset.oracle import (core_and_corona,
                            enumerate_maximum_independent_sets,
                            maximum_critical_independent_set)


def test_alpha_matches_oracle(graphs_n5):
    for g in graphs_n5:
        assert alpha(g) == o.brute_profile(g.n, g.adj).alpha


def test_alpha_on_random_graphs():
    for g in random_sample(40, 10, 16, seed=7):
        assert alpha(g) == o.brute_profile(g.n, g.adj).alpha


def test_alpha_known_values():
    assert alpha(empty_graph(0)) == 0
    assert alpha(complete_graph(6)) == 1
    assert alpha(cycle_graph(7)) == 3
    assert alpha(path_graph(6)) == 3


def test_alpha_limit():
    g = empty_graph(45)
    with pytest.raises(LimitExceeded):
        alpha(g)
    assert alpha(g, limit=45) == 45
    assert alpha(path_graph(40)) == 20
    with pytest.raises(LimitExceeded, match=r"^n=41 exceeds alpha limit 40$"):
        alpha(path_graph(41))


# past brute force's reach, alpha is checked against identities that hold
# whatever search finds it

def test_alpha_on_families_up_to_the_limit():
    for n in range(1, 41):
        assert alpha(path_graph(n)) == (n + 1) // 2
        assert alpha(complete_graph(n)) == 1
        assert alpha(empty_graph(n)) == n
        if n >= 3:
            assert alpha(cycle_graph(n)) == n // 2
    for a in range(1, 21):
        for b in (1, 2, a, 40 - a):
            assert alpha(complete_bipartite(a, b)) == max(a, b)


def test_alpha_is_n_minus_mu_on_bipartite_graphs():
    # Koenig: on a bipartite graph alpha + mu = n
    rng = random.Random(18)
    for _ in range(60):
        a = rng.randrange(1, 21)
        b = rng.randrange(0, 41 - a)
        g = random_bipartite(a, b, rng.choice([0.05, 0.1, 0.2, 0.4]),
                             rng.getrandbits(32))
        mu = len(maximum_matching_bipartite(g, bipartition(g)).edges)
        assert alpha(g) == g.n - mu


def relabelled(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edge_pairs()])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, [*g.edge_pairs(),
                             *((u + g.n, v + g.n) for u, v in h.edge_pairs())])


def test_alpha_adds_over_disjoint_unions_and_ignores_labels():
    rng = random.Random(40)
    for _ in range(40):
        n1 = rng.randrange(1, 21)
        n2 = rng.randrange(1, 41 - n1)
        g = random_graph(n1, rng.choice([0.1, 0.2, 0.3, 0.5]),
                         rng.getrandbits(32))
        h = random_graph(n2, rng.choice([0.1, 0.2, 0.3, 0.5]),
                         rng.getrandbits(32))
        union = disjoint_union(g, h)
        perm = list(range(union.n))
        rng.shuffle(perm)
        assert alpha(union) == alpha(g) + alpha(h)
        assert alpha(relabelled(union, perm)) == alpha(union)


def test_mis_enumeration_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_maximum_independent_sets(path_graph(21)))


def test_early_exit_skips_the_count(monkeypatch):
    # the DFS is fed by hand, with alpha as its target. C4 has exactly two
    # maximum independent sets covering everything and meeting nowhere, so
    # the scan stops after seeing both and never asks for a third set
    def feed(g, target):
        assert target == 2
        return fed

    monkeypatch.setattr(oracle, "_search_maximum_independent_sets", feed)
    g = cycle_graph(4)
    fed = iter([0b0101, 0b1010, 0b0101])
    assert core_and_corona(g) == (2, 0, 0b1111)
    assert next(fed, None) == 0b0101
    # 2K2 settles at the third of its four maximum independent sets
    g = parse_graph("0 1\n2 3\n")
    fed = iter([0b0101, 0b1001, 0b0110, 0b1010])
    assert core_and_corona(g) == (2, 0, 0b1111)
    assert list(fed) == [0b1010]
    monkeypatch.undo()
    assert list(enumerate_maximum_independent_sets(g)) == [
        0b0101, 0b1001, 0b0110, 0b1010]


def test_maximum_critical_independent_set_tie_rule():
    # C4 is critical only at d = 0; both diagonals attain it and {0, 2} is the
    # lexicographically smaller witness.
    assert maximum_critical_independent_set(cycle_graph(4)) == 0b0101


def test_maximum_critical_independent_set_fixture():
    fx = load("fig333.G3")
    got = maximum_critical_independent_set(fx.graph)
    assert sorted(fx.graph.label_list(got)) == ["t", "u", "v"]
