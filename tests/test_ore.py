import random

import pytest

import oracles as o
from conftest import (every_bipartition, mask_of, mid_sample,
                      random_bipartition)
from critset.critical import critical_difference
from critset.fixtures import load
from critset.graphs import (BipartitePartition, LimitExceeded, bipartition,
                            complete_bipartite, cycle_graph, difference,
                            graph_from_code, neighborhood, path_graph)
from critset.matching import saturating_matching
from critset.mis import alpha
from critset.oracle import (enumerate_critical_independent_sets,
                            enumerate_side_critical_sets)
from critset.ore import is_side_critical, ore_profile


def bipartite_n5(graphs_n5):
    """Every bipartite labeled graph with n <= 5 under every valid
    bipartition, not only bipartition(g)'s."""
    for g in graphs_n5:
        if bipartition(g) is not None:
            for parts in every_bipartition(g):
                yield g, parts


def oracle_pairs(graphs_n5):
    """bipartite_n5, then 300 seeded bipartite labeled graphs with n = 6,
    each under a random valid bipartition."""
    yield from bipartite_n5(graphs_n5)
    rng = random.Random(6)
    for _ in range(300):
        g = graph_from_code(6, rng.getrandbits(15))
        while bipartition(g) is None:
            g = graph_from_code(6, rng.getrandbits(15))
        yield g, random_bipartition(g, rng)


def fig233_setup():
    g = load("fig233").graph
    parts = bipartition(g)
    assert sorted(g.label_list(parts.side_a)) == [f"a{i}" for i in range(1, 7)]
    return g, parts


@pytest.fixture(scope="module")
def oracle_profiles(graphs_n5):
    """(ore_profile, brute side_profile of side A, of side B) for every
    oracle pair, built once and shared by the three comparisons below."""
    return [(g.adj, ore_profile(g, parts),
             o.side_profile(g.n, g.adj, parts.side_a),
             o.side_profile(g.n, g.adj, parts.side_b))
            for g, parts in oracle_pairs(graphs_n5)]


def test_delta0_matches_subset_oracle(oracle_profiles):
    for adj, p, a, b in oracle_profiles:
        assert (p.delta0_a, p.delta0_b) == (a.delta0, b.delta0), adj


def test_side_kernel_matches_oracle(oracle_profiles):
    for adj, p, a, b in oracle_profiles:
        assert (p.ker_a, p.ker_b) == (a.kernel, b.kernel), adj


def test_side_diadem_matches_oracle(oracle_profiles):
    for adj, p, a, b in oracle_profiles:
        assert (p.diadem_a, p.diadem_b) == (a.diadem, b.diadem), adj


def test_delta0_is_symmetric_under_side_swap(graphs_n5):
    for g, parts in bipartite_n5(graphs_n5):
        p = ore_profile(g, parts)
        q = ore_profile(g, BipartitePartition(parts.side_b, parts.side_a))
        assert (q.delta0_a, q.delta0_b) == (p.delta0_b, p.delta0_a)


def test_every_bipartition_counts_each_component_both_ways(graphs_n5):
    pairs = list(bipartite_n5(graphs_n5))
    assert len(pairs) == len(set(pairs)) == 1639
    assert sum(parts == bipartition(g) for g, parts in pairs) == sum(
        bipartition(g) is not None for g in graphs_n5)


def test_side_rules_match_per_vertex_rules_past_oracle_reach():
    # the mid_sample graphs with n = 12..80, each bipartite one under a
    # random valid bipartition; under 1 s
    rng = random.Random(43)
    checked = 0
    for g in mid_sample(seed=43):
        if bipartition(g) is None:
            continue
        parts = random_bipartition(g, rng)
        adj = g.adj
        p = ore_profile(g, parts)
        for mask, d0, kernel, dia in zip(
                parts, (p.delta0_a, p.delta0_b), (p.ker_a, p.ker_b),
                (p.diadem_a, p.diadem_b)):
            assert d0 == o.deficiency(adj, mask), g.adj
            assert kernel == o.deletion_rule(adj, mask), g.adj
            assert dia == o.forcing_rule(adj, mask), g.adj
        checked += 1
    assert checked >= 12


def test_side_critical_enumeration_limit():
    g = complete_bipartite(7, 2)
    parts = bipartition(g)
    side = "A" if parts.side_a.bit_count() == 7 else "B"
    with pytest.raises(LimitExceeded):
        list(enumerate_side_critical_sets(g, parts, side, limit=6))


def test_is_side_critical_fixture_examples():
    g, parts = fig233_setup()
    assert is_side_critical(g, parts, "A", mask_of(g, ["a1", "a2", "a3", "a4"]))
    assert is_side_critical(g, parts, "B", mask_of(g, ["b4", "b5", "b6", "b7"]))
    assert not is_side_critical(g, parts, "B", mask_of(g, ["b4", "b5", "b6"]))
    with pytest.raises(ValueError, match="not contained"):
        is_side_critical(g, parts, "A", mask_of(g, ["b1"]))
    with pytest.raises(ValueError, match="side must be"):
        is_side_critical(g, parts, "C", 0)
    with pytest.raises(ValueError, match="side must be"):
        next(enumerate_side_critical_sets(g, parts, "C"))


def test_fixture_side_profile():
    g, parts = fig233_setup()
    p = ore_profile(g, parts)
    assert p.delta0_a == 1 and p.delta0_b == 2
    assert g.label_list(p.ker_a) == ["a1", "a2"]
    assert g.label_list(p.ker_b) == ["b5", "b6", "b7"]
    assert g.label_list(p.diadem_a) == ["a1", "a2", "a3", "a4", "a5"]
    assert g.label_list(p.diadem_b) == ["b2", "b3", "b4", "b5", "b6", "b7"]


def assert_ore_identities(g, parts):
    """The identities tying the two sides to the whole graph that no registry
    property checks: d and alpha from the side deficiencies, side-critical
    sets combining into critical ones, critical independent sets projecting
    onto side-critical ones, and N(X) matching into each side-critical X."""
    side_a, side_b = parts
    p = ore_profile(g, parts)
    d, al = critical_difference(g), alpha(g)
    mu = side_a.bit_count() - p.delta0_a
    assert d == p.delta0_a + p.delta0_b, g.adj
    assert [side_a.bit_count() + p.delta0_b, side_b.bit_count() + p.delta0_a,
            mu + d] == [al] * 3, g.adj
    a_crits = list(enumerate_side_critical_sets(g, parts, "A"))
    b_crits = list(enumerate_side_critical_sets(g, parts, "B"))
    for x in a_crits:
        for y in b_crits:
            assert difference(g, x | y) == d, (g.adj, x, y)
    for z in enumerate_critical_independent_sets(g):
        assert difference(g, z & side_a) == p.delta0_a, (g.adj, z)
        assert difference(g, z & side_b) == p.delta0_b, (g.adj, z)
    for x in a_crits + b_crits:
        matching, _ = saturating_matching(g, neighborhood(g, x), x)
        assert matching is not None, (g.adj, x)


def test_ore_identities_on_fixture():
    g, parts = fig233_setup()
    assert_ore_identities(g, parts)


@pytest.mark.parametrize("g", [complete_bipartite(3, 2), cycle_graph(4),
                               path_graph(4), complete_bipartite(1, 3)])
def test_ore_identities_on_small_bipartite_graphs(g):
    assert_ore_identities(g, bipartition(g))


def test_ore_identities_hold_on_every_bipartite_graph_up_to_n5(graphs_n5):
    for g, parts in bipartite_n5(graphs_n5):
        assert_ore_identities(g, parts)
