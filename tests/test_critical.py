import copy
import pickle
import random

import pytest

import oracles as o
from conftest import (adj_of, masks_built, mid_sample, random_sample,
                      shuffled_chain, small_corpus)
from critset.critical import (_ker_matching, critical_difference,
                              critical_independent_witness, critical_profile,
                              diadem,
                              enumerate_critical_independent_sets,
                              enumerate_critical_sets, is_critical_independent,
                              is_critical_set, ker, max_subset_difference,
                              minimal_positive_independent_sets,
                              verify_ker_characterization)
from critset.fixtures import load
from critset.graphs import (Graph, LimitExceeded, complete_graph,
                            cycle_graph, delete_vertices, difference,
                            empty_graph, is_independent, parse_graph,
                            path_graph, to_edge_list)


def mask_of(g, labels):
    index = {lab: v for v, lab in enumerate(g.labels)}
    out = 0
    for lab in labels:
        out |= 1 << index[lab]
    return out


# -- d(G) three ways ---------------------------------------------------------------

def test_critical_difference_matches_both_oracles(graphs_n5):
    for g in graphs_n5:
        adj = adj_of(g)
        d = critical_difference(g)
        assert d == o.brute_d(g.n, adj)
        assert d == o.brute_d_independent(g.n, adj)


def test_critical_difference_known_values():
    assert critical_difference(empty_graph(4)) == 4
    assert critical_difference(complete_graph(4)) == 0
    assert critical_difference(path_graph(5)) == 1
    assert critical_difference(cycle_graph(6)) == 0
    assert critical_difference(empty_graph(0)) == 0


# -- witness extraction -------------------------------------------------------------

def test_witness_attains_d_exhaustively(graphs_n5):
    for g in graphs_n5:
        w = critical_independent_witness(g)
        assert is_independent(g, w)
        assert difference(g, w) == critical_difference(g)


def test_witness_attains_d_on_random_graphs():
    for g in random_sample(60, 8, 14, seed=31):
        w = critical_independent_witness(g)
        assert is_independent(g, w)
        assert difference(g, w) == critical_difference(g)


# -- criticality predicates ---------------------------------------------------------

def test_fig511_example_sets():
    g = load("fig511").graph
    x = mask_of(g, ["v1", "v2", "v3", "v4"])
    i = mask_of(g, ["v1", "v2", "v3", "v6", "v7"])
    assert is_critical_set(g, x)
    assert not is_critical_independent(g, x)  # v3 v4 is an edge
    assert is_critical_set(g, i) and is_critical_independent(g, i)
    assert is_critical_independent(g, 0) is False  # d(fig511) = 1 != 0


def test_empty_set_critical_iff_d_zero():
    assert is_critical_set(cycle_graph(4), 0)
    assert not is_critical_set(path_graph(5), 0)


# -- ker and diadem ------------------------------------------------------------------

def test_ker_matches_oracle(graphs_n5):
    for g in graphs_n5:
        assert ker(g) == o.brute_ker(g.n, adj_of(g))


def test_diadem_matches_oracle(graphs_n5):
    for g in graphs_n5:
        assert diadem(g) == o.brute_diadem(g.n, adj_of(g))


def test_ker_and_diadem_on_random_graphs():
    for g in random_sample(25, 8, 11, seed=17):
        adj = adj_of(g)
        assert ker(g) == o.brute_ker(g.n, adj)
        assert diadem(g) == o.brute_diadem(g.n, adj)


def assert_cover_matching_is_maximum(g):
    # the warm-started matching of the double cover is a matching of it and
    # as large as the reference's augmenting-path one
    cover = _ker_matching(g)
    pairs = [(v, w) for v, w in enumerate(cover.mate_plus) if w != -1]
    assert all(w in g.nbrs[v] and cover.mate_minus[w] == v for v, w in pairs)
    assert len(pairs) == n_matched(o.cover_matching(g.n, adj_of(g)))


def n_matched(mate):
    return sum(v != -1 for v in mate)


def test_ker_and_diadem_match_per_vertex_rules_past_oracle_reach():
    # the deletion and forcing rules recompute d once per vertex, so they
    # check the one-matching routes on graphs too big for subset enumeration
    for g in mid_sample(seed=41):
        adj = adj_of(g)
        assert_cover_matching_is_maximum(g)
        assert ker(g) == o.deletion_ker(g.n, adj), g.adj
        assert diadem(g) == o.forcing_diadem(g.n, adj), g.adj
        assert diadem(g) == o.search_diadem(g.n, adj), g.adj


@pytest.mark.parametrize("n", [501, 502, 1001, 2000])
@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_diadem_matches_per_vertex_search_on_long_chains(n, closed):
    # on a shuffled path the alternating digraph is a long chain of
    # components, which the one-pass route ORs reach sets along; on a cycle
    # it is one or two large components
    g = shuffled_chain(n, closed, seed=n + closed)
    assert diadem(g) == o.search_diadem(g.n, adj_of(g))
    assert_cover_matching_is_maximum(g)


def test_reused_graph_answers_like_a_fresh_one():
    # d, the witness, ker and diadem share one matching memoised on the
    # Graph; reuse, pickling and from_adj graphs must not change any answer
    graphs = [load("fig511").graph, *mid_sample(seed=43, per_density=2)]
    graphs.append(delete_vertices(graphs[0], 0b101)[0])
    for g in graphs:
        def fresh():
            return Graph(g.n, g.edge_pairs(), g.labels)
        state = pickle.dumps(fresh())
        want = (critical_difference(fresh()),
                critical_independent_witness(fresh()), ker(fresh()),
                diadem(fresh()))
        got = (critical_difference(g), critical_independent_witness(g),
               ker(g), diadem(g))
        assert got == want
        assert pickle.dumps(g) == state
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and hash(clone) == hash(g)
        assert (critical_difference(clone), critical_independent_witness(clone),
                ker(clone), diadem(clone)) == want
        # a parsed graph builds its masks on first read; they, equality, the
        # hash and the pickled bytes match a graph wrapped from masks built
        # edge by edge
        parsed = parse_graph(to_edge_list(g))
        masks = [0] * g.n
        for u, v in g.edge_pairs():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        eager = Graph.from_adj(tuple(masks), g.labels)
        assert (critical_difference(parsed), critical_independent_witness(parsed),
                ker(parsed)) == want[:3]
        assert not masks_built(parsed)
        assert parsed.adj == eager.adj and masks_built(parsed)
        assert parsed == eager and hash(parsed) == hash(eager)
        assert pickle.dumps(parsed) == pickle.dumps(eager) == state
        # pickling or copying a parsed graph before any read of its masks
        # gives the same bytes and an equal plain Graph
        unread = parse_graph(to_edge_list(g))
        assert pickle.dumps(unread) == state
        assert type(copy.deepcopy(parse_graph(to_edge_list(g)))) is Graph


def test_profile_is_consistent():
    g = load("fig1777").graph
    p = critical_profile(g)
    assert p.d == critical_difference(g) == 1
    assert p.ker == ker(g)
    assert p.diadem == diadem(g)
    assert is_independent(g, p.a_witness)
    assert difference(g, p.a_witness) == p.d


# -- enumeration ---------------------------------------------------------------------

def test_enumerated_critical_families_match_oracle(graphs_n5):
    for g in graphs_n5[::3]:
        adj = adj_of(g)
        got_ind = set(enumerate_critical_independent_sets(g, 6))
        assert got_ind == set(o.brute_critical_independent_sets(g.n, adj))
        got_all = set(enumerate_critical_sets(g, 6))
        assert got_all == set(o.brute_critical_sets(g.n, adj))


def test_enumeration_respects_limit():
    g = path_graph(7)
    with pytest.raises(LimitExceeded):
        list(enumerate_critical_independent_sets(g, 6))


# -- subset difference maximum --------------------------------------------------------

def test_max_subset_difference_matches_brute(graphs_n5):
    rng = random.Random(2)
    for g in graphs_n5[::5]:
        if g.n == 0:
            continue
        x = rng.randrange(1 << g.n)
        if not is_independent(g, x):
            continue
        best = max(o.d_of(adj_of(g), s) for s in o.submasks(x))
        assert max_subset_difference(g, x) == best


def test_max_subset_difference_rejects_dependent_sets():
    with pytest.raises(ValueError):
        max_subset_difference(path_graph(2), 0b11)


# -- minimal positive independent sets -------------------------------------------------

def test_minimal_positive_matches_oracle(graphs_n5):
    for g in graphs_n5[::3]:
        got = set(minimal_positive_independent_sets(g, 6))
        assert got == set(o.brute_minimal_positive(g.n, adj_of(g)))


def test_minimal_positive_fixture_values():
    g = load("fig177").graph
    got = {frozenset(g.label_list(s))
           for s in minimal_positive_independent_sets(g, 20)}
    assert got == {frozenset({"x", "y"}), frozenset({"u", "v", "w"})}


def test_minimal_positive_empty_when_d_is_zero():
    assert list(minimal_positive_independent_sets(cycle_graph(4), 20)) == []


# -- ker characterization (tight sets / per-vertex matchings) ---------------------------

def test_ker_characterization_accepts_ker(graphs_n5):
    for g in graphs_n5[::6]:
        ok, witness = verify_ker_characterization(g, ker(g), 6)
        assert ok and witness is None


def test_ker_characterization_rejects_larger_critical_sets():
    g = load("fig511").graph
    s = mask_of(g, ["v1", "v2", "v3"])
    assert is_critical_independent(g, s)
    ok, witness = verify_ker_characterization(g, s, 20)
    assert not ok and witness is not None
    # the witness is a tight subset of N(S) or an unmatchable vertex
    if witness["tight_set"]:
        b = witness["tight_set"]
        from critset.graphs import neighborhood
        assert b & neighborhood(g, s) == b
        assert (neighborhood(g, b) & s).bit_count() == b.bit_count()


def test_deletion_changes_d_by_at_most_one(graphs_n5):
    for g in graphs_n5[::4]:
        if g.n == 0:
            continue
        d = critical_difference(g)
        k = ker(g)
        for v in range(g.n):
            rest, _ = delete_vertices(g, 1 << v)
            dv = critical_difference(rest)
            assert dv in (d - 1, d, d + 1)
            assert (dv == d - 1) == bool(k >> v & 1)
