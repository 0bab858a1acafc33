import pytest

import freeze_fixtures
import oracles as o
from critset import fixtures
from critset.fixtures import fixture_names, load, verify, verify_all


def test_registry_is_complete():
    names = fixture_names()
    assert len(names) == 16
    assert names[0] == "fig511"
    with pytest.raises(ValueError, match="unknown fixture"):
        load("fig999")


def test_sidecars_are_what_their_generator_writes():
    # the one copy of the fixtures stays the output of the script that
    # derives it from the oracles, byte for byte
    built = freeze_fixtures.build()
    assert sorted(built) == sorted(freeze_fixtures.SRC.glob("*.json"))
    for sidecar, text in built.items():
        assert sidecar.read_bytes() == text.encode(), sidecar.name


def test_every_fixture_verifies():
    for report in verify_all():
        failing = [c["key"] for c in report["checks"] if not c["holds"]]
        assert failing == [], (report["name"], failing)
        assert report["holds"]


def test_a_value_error_is_a_failing_check(monkeypatch):
    # an Ore key or a side membership key on a graph that is not bipartite,
    # and a key verify has no rule for, fail with the error's text; none
    # stops the report
    fx = load("fig511")
    assert not fx.expected["bipartite"]
    monkeypatch.setattr(fixtures, "load", lambda name: fx._replace(
        expected={"ker_a": [], "bogus": 1,
                  "side_critical_a_include": [["v1"]]}))
    report = verify("fig511")
    assert report["holds"] is False and report["checks"] == [
        {"key": "bogus", "expected": 1, "holds": False,
         "actual": "unhandled expected key 'bogus'"},
        {"key": "ker_a", "expected": [], "holds": False,
         "actual": "not bipartite"},
        {"key": "side_critical_a_include", "expected": [["v1"]],
         "holds": False, "actual": "not bipartite"}]


def test_strict_inclusion_example():
    fx = load("fig1777")
    g = fx.graph
    p = o.brute_profile(g.n, g.adj)
    ker, core, diadem, corona = p.ker, p.core, p.diadem, p.corona
    assert ker & ~core == 0 and ker != core
    assert diadem & ~corona == 0 and diadem != corona


def test_divergence_notes_surface_in_reports():
    r233 = verify("fig233")
    ker_b = next(c for c in r233["checks"] if c["key"] == "ker_b")
    assert ker_b["holds"] and "note" in ker_b
    assert "fails the definition" in ker_b["note"]

    r511 = verify("fig511")
    noted = {c["key"]: c for c in r511["checks"] if "note" in c}
    assert "diadem" in noted
    assert "d_after_delete" in noted


def test_graphs_parse_with_declared_labels():
    for name in fixture_names():
        fx = load(name)
        assert fx.graph.n == fx.expected["n"]
        assert len(set(fx.graph.labels)) == fx.graph.n
