"""Bundled example graphs with frozen expected values.

Each fixture is an edge-list file plus a JSON sidecar of expected invariants.
The sidecars were produced by an independent brute-force pass, so verify()
is a regression gate for the polynomial routines, not a tautology: it checks
the values `critset analyze` reports, and a few keys derived from the same
fact cache. Where a commonly quoted hand-derived value disagrees with the
brute-force one, the sidecar keeps the brute-force value and carries a note
under the same key.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from . import critical, ore
from .cli import analyze_graph
from .graphs import Graph, LimitExceeded, difference, parse_graph
from .oracle import Facts

_FILES: dict[str, str] = {
    "fig511": "fig511.edges",
    "fig101": "fig101.edges",
    "fig22.G1": "fig22_g1.edges",
    "fig22.G2": "fig22_g2.edges",
    "fig333.G1": "fig333_g1.edges",
    "fig333.G2": "fig333_g2.edges",
    "fig333.G3": "fig333_g3.edges",
    "fig177": "fig177.edges",
    "fig233": "fig233.edges",
    "fig14.G1": "fig14_g1.edges",
    "fig14.G2": "fig14_g2.edges",
    "fig222.G1": "fig222_g1.edges",
    "fig222.G2": "fig222_g2.edges",
    "fig1777": "fig1777.edges",
    "fig17888.G1": "fig17888_g1.edges",
    "fig17888.G2": "fig17888_g2.edges",
}


class Fixture(NamedTuple):
    name: str
    file: str
    graph: Graph
    expected: dict
    notes: dict


def fixture_names() -> list[str]:
    return list(_FILES)


def _data(filename: str) -> str:
    return resources.files("critset").joinpath(
        "fixtures", filename).read_text(encoding="utf-8")


def load(name: str) -> Fixture:
    if name not in _FILES:
        raise ValueError(f"unknown fixture {name!r}")
    filename = _FILES[name]
    graph = parse_graph(_data(filename))
    doc = json.loads(_data(filename.replace(".edges", ".json")))
    return Fixture(name, filename, graph, doc["expected"],
                   doc.get("notes", {}))


def _mask_of(g: Graph, labels: list[str]) -> int:
    index = {lab: v for v, lab in enumerate(g.labels)}
    mask = 0
    for lab in labels:
        mask |= 1 << index[lab]
    return mask


# keys read off the analyze report: the twelve every sidecar holds, then the
# per-side Ore values under its "ore" block
_REPORTED = ("n", "m", "bipartite", "ke", "d", "alpha", "mu", "deficiency",
             "ker", "diadem", "core", "corona")
_ORE_REPORTED = ("delta0_a", "delta0_b", "ker_a", "ker_b", "diadem_a",
                 "diadem_b")


def _reported(key: str, report: dict):
    """The analyze report's value for a reported key; a field the report
    skipped raises LimitExceeded with the report's reason."""
    if key in report["skipped"]:
        raise LimitExceeded(report["skipped"][key])
    if key in _REPORTED:
        return report[key]
    if "ore" not in report:
        raise ValueError("not bipartite")
    return report["ore"][key]


def _parts(f: Facts):
    """The graph's bipartition; a graph that is not bipartite fails a side
    key as the report's Ore keys do."""
    parts = f.parts()
    if parts is None:
        raise ValueError("not bipartite")
    return parts


# keys whose expected value is a list of sets that must each pass a predicate;
# the computed value is the list of failing sets, so matching means empty
_MEMBERSHIP_KEYS = {
    "critical_sets": lambda f, x: critical.is_critical_set(f.g, x),
    "critical_independent_sets_include":
        lambda f, x: critical.is_critical_independent(f.g, x),
    "side_critical_a_include":
        lambda f, x: ore.is_side_critical(f.g, _parts(f), "A", x),
    "side_critical_b_include":
        lambda f, x: ore.is_side_critical(f.g, _parts(f), "B", x),
}


def _compute(key: str, expected, f: Facts):
    """Actual value for one derived expected key; shapes mirror the sidecar."""
    g = f.g
    if key == "perfect_matching":
        return 2 * f.mu() == g.n
    if key == "v_minus_corona":
        return g.label_list(g.full & ~f.corona())
    if key == "core_is_critical":
        return difference(g, f.core()) == f.d()
    if key == "corona_is_critical":
        return difference(g, f.corona()) == f.d()
    if key == "ker_eq_core":
        return f.ker() == f.core()
    if key == "diadem_eq_corona":
        return f.diadem() == f.corona()
    if key == "core_plus_corona":
        return f.core().bit_count() + f.corona().bit_count()
    if key == "two_alpha":
        return 2 * f.alpha()
    if key == "conjecture_strict":
        return f.ker().bit_count() + f.diadem().bit_count() < 2 * f.alpha()
    if key in _MEMBERSHIP_KEYS:
        passes = _MEMBERSHIP_KEYS[key]
        return [sets for sets in expected
                if not passes(f, _mask_of(g, sets))]
    if key == "d_after_delete":
        return {lab: critical._d_without(g, g.labels.index(lab))
                for lab in expected}
    if key == "minimal_positive":
        found = {frozenset(g.label_list(s))
                 for s in f.minimal_positives()}
        return sorted(sorted(s) for s in found)
    if key == "max_critical_independent_size":
        return f.max_critical_ind().bit_count()
    if key == "maximum_critical_independent":
        return g.label_list(f.max_critical_ind())
    raise ValueError(f"unhandled expected key {key!r}")


def verify(name: str, config=None) -> dict:
    """Compare every expected value of one fixture with the analyze report
    or, for the derived keys, with the same fact cache. A value that a limit
    keeps from being computed is reported as skipped, with the reason, and
    never counts as failing."""
    fx = load(name)
    facts = Facts(fx.graph, config)
    report = analyze_graph(facts)
    checks = []
    for key in sorted(fx.expected):
        expected = fx.expected[key]
        entry = {"key": key, "expected": expected}
        try:
            actual = (_reported(key, report)
                      if key in _REPORTED or key in _ORE_REPORTED
                      else _compute(key, expected, facts))
        except LimitExceeded as exc:
            entry["skipped"] = str(exc)
        except ValueError as exc:
            entry.update(holds=False, actual=str(exc))
        else:
            if key == "minimal_positive":
                holds = actual == sorted(sorted(s) for s in expected)
            elif key in _MEMBERSHIP_KEYS:
                holds = actual == []
            else:
                holds = actual == expected
            entry.update(holds=holds, actual=actual)
        noted = {k: v for k, v in fx.notes.items()
                 if k == key or k.startswith(key + ".")}
        if noted:
            entry["note"] = "; ".join(noted[k] for k in sorted(noted))
        checks.append(entry)
    return {"name": name, "file": fx.file,
            "holds": all(c.get("holds", True) for c in checks),
            "checks": checks, "notes": fx.notes}


def verify_all(config=None) -> list[dict]:
    return [verify(name, config) for name in fixture_names()]
