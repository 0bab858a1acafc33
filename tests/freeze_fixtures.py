"""Regenerate the fixture sidecar files from the brute-force oracles.

Not a test. Run from the repo root:

    PYTHONPATH=src python tests/freeze_fixtures.py

FIXTURES holds one row per figure of the paper: its name and file, its
hand-checked values, an optional check of a claim no sidecar key holds, and
its notes. build() writes the twelve keys of `common` and each further
claimed key by its one rule in DERIVED (the oracle-side counterpart of
`fixtures._compute`), asserts every claim against them and returns each
sidecar's text; test_fixtures.py checks those equal the committed files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).parent))

import oracles as o
from conftest import mask_of

from critset.graphs import Graph, bipartition, delete_vertices, parse_graph

SRC = Path(__file__).resolve().parent.parent / "src" / "critset" / "fixtures"


def labels(g: Graph, mask: int) -> list[str]:
    return [g.labels[v] for v in o.bits(mask)]


def common(g: Graph, p: o.Profile) -> dict:
    assert p.d == p.d_independent
    return {
        "n": g.n,
        "m": g.m,
        "bipartite": bipartition(g) is not None,
        "d": p.d,
        "alpha": p.alpha,
        "mu": p.mu,
        "deficiency": g.n - 2 * p.mu,
        "ke": p.ke,
        "ker": labels(g, p.ker),
        "diadem": labels(g, p.diadem),
        "core": labels(g, p.core),
        "corona": labels(g, p.corona),
    }


def d_after_delete(g: Graph, name: str) -> int:
    smaller, _ = delete_vertices(g, mask_of(g, [name]))
    return o.brute_d(smaller.n, smaller.adj)


def side(g: Graph, i: int) -> o.SideProfile:
    """The brute answers about side A (i = 0) or side B (i = 1)."""
    parts = bipartition(g)
    assert parts is not None
    return o.side_profile(g.n, g.adj, parts[i])


def critical(g: Graph, p: o.Profile, x: int) -> bool:
    return o.d_of(g.adj, x) == p.d


def critical_independent(g: Graph, p: o.Profile, x: int) -> bool:
    return o.is_independent(g.adj, x) and critical(g, p, x)


def confirmed(test: Callable[[Graph, o.Profile, int], bool]) -> Callable:
    """The rule of a set-list key: the claimed sets that pass test, so a
    claimed set the oracles refute leaves the value short of the claim."""
    return lambda g, p, claim: [names for names in claim
                                if test(g, p, mask_of(g, names))]


def side_rules(i: int, s: str) -> dict[str, Callable]:
    """The rules of the keys of side A (i = 0, s = "a") or B (1, "b")."""
    return {
        f"delta0_{s}": lambda g, p, _: side(g, i).delta0,
        f"ker_{s}": lambda g, p, _: labels(g, side(g, i).kernel),
        f"diadem_{s}": lambda g, p, _: labels(g, side(g, i).diadem),
        f"side_critical_{s}_include": confirmed(
            lambda g, p, x: x in side(g, i).critical),
    }


# one rule per sidecar key outside common: the key's value from the graph,
# its brute profile and the claimed value
DERIVED: dict[str, Callable] = {
    "perfect_matching": lambda g, p, _: 2 * p.mu == g.n,
    "v_minus_corona": lambda g, p, _: labels(g, g.full & ~p.corona),
    "core_is_critical": lambda g, p, _: critical(g, p, p.core),
    "corona_is_critical": lambda g, p, _: critical(g, p, p.corona),
    "ker_eq_core": lambda g, p, _: p.ker == p.core,
    "diadem_eq_corona": lambda g, p, _: p.diadem == p.corona,
    "core_plus_corona":
        lambda g, p, _: p.core.bit_count() + p.corona.bit_count(),
    "two_alpha": lambda g, p, _: 2 * p.alpha,
    "conjecture_strict": lambda g, p, _:
        p.ker.bit_count() + p.diadem.bit_count() < 2 * p.alpha,
    "critical_sets": confirmed(critical),
    "critical_independent_sets_include": confirmed(critical_independent),
    "d_after_delete": lambda g, p, claim:
        {name: d_after_delete(g, name) for name in claim},
    "minimal_positive":
        lambda g, p, _: [labels(g, m) for m in p.minimal_positive],
    "max_critical_independent_size":
        lambda g, p, _: p.max_critical.bit_count(),
    "maximum_critical_independent":
        lambda g, p, _: labels(g, p.max_critical),
    **side_rules(0, "a"),
    **side_rules(1, "b"),
}


class Figure(NamedTuple):
    name: str
    file: str
    claims: dict  # the hand-checked values, by sidecar key
    # a hand-checked claim that no sidecar key holds
    check: Callable[[Graph, o.Profile], bool] | None = None
    notes: dict | None = None


FIXTURES = [
    Figure("fig511", "fig511.edges", {
        "d": 1, "ker": ["v1", "v2"], "core": ["v1", "v2", "v6", "v10"],
        "diadem": ["v1", "v2", "v3", "v4", "v6", "v7", "v8", "v10", "v11",
                   "v13"],
        "corona": ["v1", "v2", "v3", "v4", "v6", "v7", "v8", "v10", "v11",
                   "v13"],
        "alpha": 7, "mu": 6, "ke": True,
        "critical_sets": [["v1", "v2"], ["v1", "v2", "v3"],
                          ["v1", "v2", "v3", "v4"],
                          ["v1", "v2", "v3", "v4", "v6", "v7"]],
        "critical_independent_sets_include": [
            ["v1", "v2", "v3"], ["v1", "v2", "v4"],
            ["v1", "v2", "v3", "v6", "v7"]],
        "d_after_delete": {"v1": 0, "v3": 2, "v13": 2}},
        check=lambda g, p: critical_independent(
            g, p, mask_of(g, ["v1", "v2", "v6", "v8"])),
        notes={"diadem": (
            "A hand-derived value {v1,v2,v3,v4,v6,v7,v10} sometimes quoted "
            "for this graph is the union of four well-known critical "
            "independent sets, not of all of them: {v1,v2,v6,v8} is "
            "independent with |N| = 3, so its difference is 1 = d(G) and v8 "
            "belongs to the union; the same goes for v11 and v13. The graph "
            "satisfies alpha + mu = n, so the union of critical independent "
            "sets must equal corona, and exhaustive enumeration confirms "
            "both are the committed expectation."),
            "d_after_delete.v13": (
            "A hand-derived value of 1 sometimes quoted for this deletion "
            "misses {v1,v2,v6,v10,v11}, which is independent in the graph "
            "minus v13 with neighborhood {v5,v9,v12}, giving d = 5 - 3 = 2. "
            "The same set makes v11 a diadem member, so the two corrections "
            "share one root cause.")}),
    Figure("fig101", "fig101.edges", {"d": 1, "core": ["a", "b"],
        "v_minus_corona": ["c", "d"], "corona_is_critical": False,
        "ke": False, "alpha": 5},
        check=lambda g, p: o.d_of(g.adj, p.corona) == 0),
    Figure("fig22.G1", "fig22_g1.edges", {"core": ["a", "b", "c", "d"],
        "core_is_critical": True, "ke": False}),
    Figure("fig22.G2", "fig22_g2.edges", {"core": ["x", "y", "z", "w"],
        "core_is_critical": False, "ker": ["x", "y", "z"], "ke": False}),
    Figure("fig333.G1", "fig333_g1.edges", {"d": 1, "core": ["a", "b"],
        "ker": ["a", "b"], "ke": True, "alpha": 3, "mu": 2}),
    Figure("fig333.G2", "fig333_g2.edges", {"d": 2,
        "core": ["x", "y", "z", "q"], "core_is_critical": True,
        "ker": ["x", "y", "z"], "alpha": 5, "max_critical_independent_size": 5,
        "minimal_positive": [["x", "y"], ["x", "z"], ["y", "z"]]}),
    Figure("fig333.G3", "fig333_g3.edges", {"d": 1, "ker": ["u", "v"],
        "core": ["t", "u", "v", "w"], "core_is_critical": False,
        "maximum_critical_independent": ["t", "u", "v"]},
        check=lambda g, p: [x.bit_count() for x in p.critical].count(
            p.max_critical.bit_count()) == 1),
    Figure("fig177", "fig177.edges", {
        "minimal_positive": [["x", "y"], ["u", "v", "w"]],
        "ker": ["x", "y", "u", "v", "w"]}),
    Figure("fig233", "fig233.edges", {
        "delta0_a": 1, "delta0_b": 2, "d": 3, "alpha": 8, "mu": 5,
        "ker_a": ["a1", "a2"], "ker_b": ["b5", "b6", "b7"],
        "diadem_a": ["a1", "a2", "a3", "a4", "a5"],
        "diadem_b": ["b2", "b3", "b4", "b5", "b6", "b7"],
        "side_critical_a_include": [["a1", "a2", "a3", "a4"]],
        "side_critical_b_include": [["b4", "b5", "b6", "b7"]],
        "ker": ["a1", "a2", "b5", "b6", "b7"], "perfect_matching": False},
        check=lambda g, p: labels(g, bipartition(g).side_a)
        == ["a1", "a2", "a3", "a4", "a5", "a6"],
        notes={"ker_b": (
            "A hand-derived value {b4, b5, b6} sometimes quoted for this "
            "graph fails the definition: its deficiency is 3 - 2 = 1, not "
            "delta0(B) = 2. Exhaustive enumeration finds the B-critical sets "
            "{b5,b6,b7}, {b4,b5,b6,b7}, {b2,...,b7}, whose intersection "
            "{b5, b6, b7} is the committed expectation.")}),
    Figure("fig14.G1", "fig14_g1.edges", {"ker": ["x", "y"],
        "core": ["x", "y"], "ke": True, "bipartite": False}),
    Figure("fig14.G2", "fig14_g2.edges", {"ker": ["a", "b"],
        "core": ["a", "b"], "ke": False}),
    Figure("fig222.G1", "fig222_g1.edges", {"ker": ["x", "y"],
        "core": ["x", "y", "u", "v"], "ke": True, "alpha": 5, "mu": 4,
        "conjecture_strict": True}),
    Figure("fig222.G2", "fig222_g2.edges", {"ker": [], "core": ["w"],
        "ke": True, "alpha": 2, "mu": 2, "deficiency": 0,
        "diadem": ["w", "n2", "n3"], "corona": ["w", "n2", "n3"],
        "perfect_matching": True}),
    Figure("fig1777", "fig1777.edges", {"core": ["x", "y", "z"], "d": 1,
        "core_is_critical": True, "ke": False, "alpha": 6, "mu": 5,
        "core_plus_corona": 13, "two_alpha": 12}),
    Figure("fig17888.G1", "fig17888_g1.edges", {"ke": True,
        "bipartite": False, "alpha": 7, "mu": 4, "d": 3,
        "ker_eq_core": True, "diadem_eq_corona": True}),
    Figure("fig17888.G2", "fig17888_g2.edges", {"ke": False,
        "bipartite": False, "alpha": 4, "mu": 3, "ker": ["x", "y"],
        "core": ["x", "y"], "ker_eq_core": True, "diadem": ["x", "y", "u"],
        "corona": ["x", "y", "z", "t", "u", "v", "w"],
        "diadem_eq_corona": False}),
]


def build() -> dict[Path, str]:
    """Each sidecar's path and text, derived from its .edges file; every
    claimed value is asserted against the value written."""
    sidecars = {}
    for fig in FIXTURES:
        path = SRC / fig.file
        g = parse_graph(path.read_text())
        p = o.brute_profile(g.n, g.adj)
        expected = common(g, p)
        for key, claim in fig.claims.items():
            if key not in expected:
                expected[key] = DERIVED[key](g, p, claim)
            assert expected[key] == claim, (fig.name, key)
        assert fig.check is None or fig.check(g, p), fig.name
        doc = {"name": fig.name, "file": fig.file, "expected": expected}
        if fig.notes:
            doc["notes"] = fig.notes
        sidecars[path.with_suffix(".json")] = json.dumps(
            doc, indent=2, sort_keys=True) + "\n"
    return sidecars


def main() -> int:
    for sidecar, text in build().items():
        sidecar.write_text(text)
        doc = json.loads(text)
        expected = doc["expected"]
        print(f"{doc['name']:14s} ok  (n={expected['n']}, m={expected['m']}, "
              f"d={expected['d']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
