"""Bundled example graphs with frozen expected values.

Each fixture is an edge-list file plus a JSON sidecar of expected invariants.
The sidecars were produced by an independent brute-force pass, so verify()
is a regression gate for the polynomial routines, not a tautology. Where a
commonly quoted hand-derived value disagrees with the brute-force one, the
sidecar keeps the brute-force value and carries a note under the same key.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from . import critical, ore
from .graphs import Graph, delete_vertices, difference, parse_graph
from .mis import maximum_critical_independent_set
from .props import Facts

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
        "fixtures", filename).read_text()


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


def _compute(key: str, expected, g: Graph, f: Facts):
    """Actual value for one expected key; shapes mirror the sidecar."""
    parts = f.parts()
    if key == "n":
        return g.n
    if key == "m":
        return g.m
    if key == "bipartite":
        return parts is not None
    if key == "d":
        return f.d()
    if key == "alpha":
        return f.alpha()
    if key == "mu":
        return f.mu()
    if key == "deficiency":
        return g.n - 2 * f.mu()
    if key == "ke":
        return f.is_ke()
    if key == "perfect_matching":
        return 2 * f.mu() == g.n
    if key == "ker":
        return g.label_list(f.ker())
    if key == "diadem":
        return g.label_list(f.diadem())
    if key == "core":
        return g.label_list(f.core())
    if key == "corona":
        return g.label_list(f.corona())
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
    if key == "critical_sets":
        return [sets for sets in expected
                if not critical.is_critical_set(g, _mask_of(g, sets))]
    if key == "critical_independent_sets_include":
        return [sets for sets in expected
                if not critical.is_critical_independent(g, _mask_of(g, sets))]
    if key == "d_after_delete":
        out = {}
        for lab in expected:
            rest, _ = delete_vertices(g, _mask_of(g, [lab]))
            out[lab] = critical.critical_difference(rest)
        return out
    if key == "minimal_positive":
        found = {frozenset(g.label_list(s))
                 for s in f.minimal_positives()}
        return sorted(sorted(s) for s in found)
    if key == "max_critical_independent_size":
        return maximum_critical_independent_set(
            g, f.config.oracle_limit).bit_count()
    if key == "maximum_critical_independent":
        return g.label_list(maximum_critical_independent_set(
            g, f.config.oracle_limit))
    if key in ("delta0_a", "delta0_b"):
        return getattr(f.ore_profile(), key)
    if key in ("ker_a", "ker_b", "diadem_a", "diadem_b"):
        return g.label_list(getattr(f.ore_profile(), key))
    if key == "side_critical_a_include":
        return [sets for sets in expected
                if not ore.is_side_critical(g, parts, "A", _mask_of(g, sets))]
    if key == "side_critical_b_include":
        return [sets for sets in expected
                if not ore.is_side_critical(g, parts, "B", _mask_of(g, sets))]
    raise ValueError(f"unhandled expected key {key!r}")


# keys whose expected value is a list of sets that must each pass a predicate;
# the computed value is the list of failing sets, so matching means empty
_MEMBERSHIP_KEYS = {"critical_sets", "critical_independent_sets_include",
                    "side_critical_a_include", "side_critical_b_include"}


def verify(name: str, config=None) -> dict:
    """Recompute every expected value of one fixture and compare."""
    fx = load(name)
    g = fx.graph
    facts = Facts(g, config) if config is not None else Facts(g)
    checks = []
    for key in sorted(fx.expected):
        expected = fx.expected[key]
        try:
            actual = _compute(key, expected, g, facts)
        except ValueError as exc:
            checks.append({"key": key, "holds": False,
                           "expected": expected, "actual": str(exc)})
            continue
        if key == "minimal_positive":
            holds = actual == sorted(sorted(s) for s in expected)
        elif key in _MEMBERSHIP_KEYS:
            holds = actual == []
        else:
            holds = actual == expected
        entry = {"key": key, "holds": holds,
                 "expected": expected, "actual": actual}
        noted = {k: v for k, v in fx.notes.items()
                 if k == key or k.startswith(key + ".")}
        if noted:
            entry["note"] = "; ".join(noted[k] for k in sorted(noted))
        checks.append(entry)
    return {"name": name, "file": fx.file,
            "holds": all(c["holds"] for c in checks),
            "checks": checks, "notes": fx.notes}


def verify_all(config=None) -> list[dict]:
    return [verify(name, config) for name in fixture_names()]
