import pytest

import oracles as o
from conftest import random_sample
from critset.fixtures import load
from critset.graphs import complete_graph, cycle_graph, path_graph
from critset.critical import critical_difference, diadem, ker
from critset.ke import identity_checks, is_koenig_egervary
from critset.matching import maximum_matching_general
from critset.mis import alpha
from critset.oracle import core_and_corona


def test_recognition_on_random_graphs():
    for g in random_sample(40, 8, 12, seed=91):
        assert is_koenig_egervary(g) == o.brute_profile(g.n, g.adj).ke


def test_known_classifications():
    assert is_koenig_egervary(path_graph(4))
    assert is_koenig_egervary(cycle_graph(4))
    assert not is_koenig_egervary(cycle_graph(5))
    assert not is_koenig_egervary(complete_graph(4))
    assert not is_koenig_egervary(load("fig22.G1").graph)


def checks_of(g):
    profile = core_and_corona(g)
    return identity_checks(g, alpha(g), len(maximum_matching_general(g)),
                           critical_difference(g), profile.core,
                           profile.corona, ker(g), diadem(g))


@pytest.mark.parametrize("name", ["fig511", "fig333.G1", "fig177", "fig14.G1",
                                  "fig222.G1", "fig17888.G1"])
def test_identities_hold_on_ke_fixtures(name):
    g = load(name).graph
    a, mu = alpha(g), len(maximum_matching_general(g))
    assert a + mu == g.n
    assert critical_difference(g) == a - mu == g.n - 2 * mu
    checks = checks_of(g)
    assert all(c["holds"] for c in checks)
    names = {c["name"] for c in checks}
    assert "diadem_eq_corona" in names and "core_is_critical" in names


def test_identities_hold_on_every_small_ke_graph(graphs_n5):
    for g in graphs_n5:
        if not is_koenig_egervary(g):
            continue
        assert all(c["holds"] for c in checks_of(g)), g.adj


def test_report_sides_are_reusable():
    for c in checks_of(path_graph(5)):
        assert sorted(c) == ["holds", "lhs", "name", "rhs"]
        # every check records both sides; holding means they agree in the
        # sense the check encodes, and for these two it is plain equality
        if c["name"] in ("diadem_eq_corona", "ncore_eq_complement_of_corona"):
            assert (c["lhs"] == c["rhs"]) == c["holds"]
