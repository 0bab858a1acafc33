import pytest

import oracles as o
from conftest import adj_of, random_sample
from critset.fixtures import load
from critset.graphs import (LimitExceeded, complete_graph, cycle_graph,
                            empty_graph, parse_graph, path_graph)
from critset.mis import (_core_and_corona, alpha, core_and_corona,
                         enumerate_maximum_independent_sets,
                         maximum_critical_independent_set)


def test_alpha_matches_oracle(graphs_n5):
    for g in graphs_n5:
        assert alpha(g) == o.brute_alpha(g.n, adj_of(g))


def test_alpha_on_random_graphs():
    for g in random_sample(40, 10, 16, seed=7):
        assert alpha(g) == o.brute_alpha(g.n, adj_of(g))


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


def test_mis_enumeration_matches_oracle(graphs_n5):
    for g in graphs_n5[::3]:
        got = set(enumerate_maximum_independent_sets(g))
        assert got == set(o.brute_mis_family(g.n, adj_of(g)))


def test_mis_enumeration_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_maximum_independent_sets(path_graph(21)))


def test_core_and_corona_match_oracle(graphs_n5):
    for g in graphs_n5:
        p = core_and_corona(g)
        adj = adj_of(g)
        assert p.core == o.brute_core(g.n, adj)
        assert p.corona == o.brute_corona(g.n, adj)


def test_core_and_corona_random():
    for g in random_sample(25, 8, 12, seed=3):
        p = core_and_corona(g)
        adj = adj_of(g)
        assert p.core == o.brute_core(g.n, adj)
        assert p.corona == o.brute_corona(g.n, adj)


def test_early_exit_skips_the_count():
    # C4 has exactly two maximum independent sets covering everything and
    # meeting nowhere, so the scan stops after seeing both and never asks
    # for a third set
    g = cycle_graph(4)
    sets = iter([0b0101, 0b1010, 0b0101])
    assert _core_and_corona(g, 2, sets) == core_and_corona(g) == (2, 0, 0b1111)
    assert next(sets, None) == 0b0101
    # 2K2 settles at the third of its four maximum independent sets
    g = parse_graph("0 1\n2 3\n")
    sets = iter(enumerate_maximum_independent_sets(g))
    assert _core_and_corona(g, 2, sets) == core_and_corona(g) == (2, 0, 0b1111)
    assert list(sets) == [0b1010]


def test_maximum_critical_independent_set_tie_rule():
    # C4 is critical only at d = 0; both diagonals attain it and {0, 2} is the
    # lexicographically smaller witness.
    assert maximum_critical_independent_set(cycle_graph(4)) == 0b0101


def test_maximum_critical_independent_set_fixture():
    fx = load("fig333.G3")
    got = maximum_critical_independent_set(fx.graph)
    assert sorted(fx.graph.label_list(got)) == ["t", "u", "v"]


def test_maximum_critical_independent_size_matches_oracle(graphs_n5):
    for g in graphs_n5[::4]:
        best = maximum_critical_independent_set(g)
        sizes = [s.bit_count()
                 for s in o.brute_max_critical_independent_sets(g.n, adj_of(g))]
        assert best.bit_count() == max(sizes)
