"""Regenerate the fixture sidecar files from the brute-force oracles.

Not a test. Run from the repo root:

    PYTHONPATH=src python tests/freeze_fixtures.py

For every .edges file the script derives all expected values with the
oracles in oracles.py, asserts the hand-checked headline values against the
oracle answers, and writes src/critset/fixtures/<name>.json. `build` returns
those texts without writing them; test_fixtures.py checks that they equal
the committed files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles as o
from conftest import mask_of

from critset.graphs import Graph, bipartition, delete_vertices, parse_graph

SRC = Path(__file__).resolve().parent.parent / "src" / "critset" / "fixtures"


def labels(g: Graph, mask: int) -> list[str]:
    return [g.labels[v] for v in o.bits(mask)]


def brute(g: Graph) -> o.Profile:
    return o.brute_profile(g.n, g.adj)


def common(g: Graph) -> dict:
    p = brute(g)
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


def side_masks(g: Graph) -> tuple[int, int]:
    parts = bipartition(g)
    assert parts is not None
    return parts.side_a, parts.side_b


def expect_fig511(g: Graph) -> dict:
    exp = common(g)
    adj = g.adj
    assert exp["d"] == 1
    assert exp["core"] == ["v1", "v2", "v6", "v10"]
    assert exp["diadem"] == ["v1", "v2", "v3", "v4", "v6", "v7", "v8",
                             "v10", "v11", "v13"]
    assert exp["diadem"] == exp["corona"]
    narrower = mask_of(g, ["v1", "v2", "v6", "v8"])
    assert o.is_independent(adj, narrower) and o.d_of(adj, narrower) == 1
    assert exp["ker"] == ["v1", "v2"]
    assert exp["alpha"] == 7 and exp["mu"] == 6 and exp["ke"]
    crit_sets = [["v1", "v2"], ["v1", "v2", "v3"], ["v1", "v2", "v3", "v4"],
                 ["v1", "v2", "v3", "v4", "v6", "v7"]]
    for names in crit_sets:
        assert o.d_of(adj, mask_of(g, names)) == 1
    crit_ind = [["v1", "v2", "v3"], ["v1", "v2", "v4"],
                ["v1", "v2", "v3", "v6", "v7"]]
    for names in crit_ind:
        m = mask_of(g, names)
        assert o.is_independent(adj, m) and o.d_of(adj, m) == 1
    deletions = {"v1": 0, "v3": 2, "v13": 2}
    for name, want in deletions.items():
        assert d_after_delete(g, name) == want, name
    exp.update({
        "critical_sets": crit_sets,
        "critical_independent_sets_include": crit_ind,
        "d_after_delete": deletions,
    })
    return exp


def expect_fig101(g: Graph) -> dict:
    exp = common(g)
    corona = brute(g).corona
    assert exp["d"] == 1
    assert exp["core"] == ["a", "b"]
    assert labels(g, g.full & ~corona) == ["c", "d"]
    assert o.d_of(g.adj, corona) == 0
    assert not exp["ke"]
    assert exp["alpha"] == 5
    exp.update({
        "v_minus_corona": ["c", "d"],
        "corona_is_critical": False,
    })
    return exp


def expect_fig22_g1(g: Graph) -> dict:
    exp = common(g)
    assert exp["core"] == ["a", "b", "c", "d"]
    assert o.d_of(g.adj, brute(g).core) == exp["d"]
    assert not exp["ke"]
    exp["core_is_critical"] = True
    return exp


def expect_fig22_g2(g: Graph) -> dict:
    exp = common(g)
    assert exp["core"] == ["x", "y", "z", "w"]
    assert o.d_of(g.adj, brute(g).core) != exp["d"]
    assert exp["ker"] == ["x", "y", "z"]
    assert not exp["ke"]
    exp["core_is_critical"] = False
    return exp


def expect_fig333_g1(g: Graph) -> dict:
    exp = common(g)
    assert exp["d"] == 1
    assert exp["core"] == ["a", "b"] and exp["ker"] == ["a", "b"]
    assert exp["ke"] and exp["alpha"] == 3 and exp["mu"] == 2
    return exp


def expect_fig333_g2(g: Graph) -> dict:
    exp, p = common(g), brute(g)
    assert exp["d"] == 2
    assert exp["core"] == ["x", "y", "z", "q"]
    assert o.d_of(g.adj, p.core) == 2
    assert exp["ker"] == ["x", "y", "z"]
    top_size = p.max_critical.bit_count()
    assert top_size == exp["alpha"] == 5
    minimal = [labels(g, m) for m in p.minimal_positive]
    assert minimal == [["x", "y"], ["x", "z"], ["y", "z"]]
    exp.update({
        "core_is_critical": True,
        "max_critical_independent_size": top_size,
        "minimal_positive": minimal,
    })
    return exp


def expect_fig333_g3(g: Graph) -> dict:
    exp, p = common(g), brute(g)
    assert exp["d"] == 1
    assert exp["ker"] == ["u", "v"]
    assert exp["core"] == ["t", "u", "v", "w"]
    assert o.d_of(g.adj, p.core) != 1
    size = p.max_critical.bit_count()
    assert [x for x in p.critical if x.bit_count() == size] == [
        mask_of(g, ["t", "u", "v"])]
    exp.update({
        "core_is_critical": False,
        "maximum_critical_independent": ["t", "u", "v"],
    })
    return exp


def expect_fig177(g: Graph) -> dict:
    exp = common(g)
    minimal = [labels(g, m) for m in brute(g).minimal_positive]
    assert minimal == [["x", "y"], ["u", "v", "w"]]
    assert exp["ker"] == ["x", "y", "u", "v", "w"]
    exp["minimal_positive"] = minimal
    return exp


def expect_fig233(g: Graph) -> dict:
    exp = common(g)
    side_a, side_b = side_masks(g)
    assert labels(g, side_a) == [f"a{i}" for i in range(1, 7)]
    a, b = (o.side_profile(g.n, g.adj, side) for side in (side_a, side_b))
    d0a, d0b = a.delta0, b.delta0
    assert (d0a, d0b) == (1, 2)
    assert exp["d"] == 3 and exp["alpha"] == 8 and exp["mu"] == 5
    ker_a, ker_b = labels(g, a.kernel), labels(g, b.kernel)
    assert ker_a == ["a1", "a2"]
    assert ker_b == ["b5", "b6", "b7"]
    diadem_a, diadem_b = labels(g, a.diadem), labels(g, b.diadem)
    assert diadem_a == [f"a{i}" for i in range(1, 6)]
    assert diadem_b == [f"b{i}" for i in range(2, 8)]
    assert mask_of(g, ["a1", "a2", "a3", "a4"]) in a.critical
    assert mask_of(g, ["b4", "b5", "b6", "b7"]) in b.critical
    assert exp["ker"] == ["a1", "a2", "b5", "b6", "b7"]
    assert 2 * exp["mu"] < g.n
    exp.update({
        "delta0_a": d0a,
        "delta0_b": d0b,
        "ker_a": ker_a,
        "ker_b": ker_b,
        "diadem_a": diadem_a,
        "diadem_b": diadem_b,
        "side_critical_a_include": [["a1", "a2", "a3", "a4"]],
        "side_critical_b_include": [["b4", "b5", "b6", "b7"]],
        "perfect_matching": False,
    })
    return exp


def expect_fig14_g1(g: Graph) -> dict:
    exp = common(g)
    assert exp["ker"] == ["x", "y"] and exp["core"] == ["x", "y"]
    assert exp["ke"] and not exp["bipartite"]
    return exp


def expect_fig14_g2(g: Graph) -> dict:
    exp = common(g)
    assert exp["ker"] == ["a", "b"] and exp["core"] == ["a", "b"]
    assert not exp["ke"]
    return exp


def expect_fig222_g1(g: Graph) -> dict:
    exp = common(g)
    assert exp["ker"] == ["x", "y"]
    assert exp["core"] == ["x", "y", "u", "v"]
    assert exp["ke"] and exp["alpha"] == 5 and exp["mu"] == 4
    assert len(exp["ker"]) + len(exp["diadem"]) < 2 * exp["alpha"]
    exp["conjecture_strict"] = True
    return exp


def expect_fig222_g2(g: Graph) -> dict:
    exp = common(g)
    assert exp["ker"] == [] and exp["core"] == ["w"]
    assert exp["ke"] and exp["alpha"] == 2 and exp["mu"] == 2
    assert exp["deficiency"] == 0
    assert exp["diadem"] == exp["corona"] == ["w", "n2", "n3"]
    exp["perfect_matching"] = True
    return exp


def expect_fig1777(g: Graph) -> dict:
    exp = common(g)
    assert exp["core"] == ["x", "y", "z"]
    assert o.d_of(g.adj, brute(g).core) == exp["d"] == 1
    assert not exp["ke"]
    assert exp["alpha"] == 6 and exp["mu"] == 5
    total = len(exp["core"]) + len(exp["corona"])
    assert total == 13 and 2 * exp["alpha"] == 12
    exp.update({
        "core_is_critical": True,
        "core_plus_corona": total,
        "two_alpha": 2 * exp["alpha"],
    })
    return exp


def expect_fig17888_g1(g: Graph) -> dict:
    exp = common(g)
    assert exp["ke"] and not exp["bipartite"]
    assert exp["alpha"] == 7 and exp["mu"] == 4 and exp["d"] == 3
    assert exp["ker"] == exp["core"]
    assert exp["diadem"] == exp["corona"]
    exp.update({"ker_eq_core": True, "diadem_eq_corona": True})
    return exp


def expect_fig17888_g2(g: Graph) -> dict:
    exp = common(g)
    assert not exp["ke"] and not exp["bipartite"]
    assert exp["alpha"] == 4 and exp["mu"] == 3
    assert exp["ker"] == exp["core"] == ["x", "y"]
    assert exp["diadem"] == ["x", "y", "u"]
    assert exp["corona"] == ["x", "y", "z", "t", "u", "v", "w"]
    exp.update({"ker_eq_core": True, "diadem_eq_corona": False})
    return exp


FIXTURES = [
    ("fig511", "fig511.edges", expect_fig511, {
        "diadem": "A hand-derived value {v1,v2,v3,v4,v6,v7,v10} sometimes "
                  "quoted for this graph is the union of four well-known "
                  "critical independent sets, not of all of them: "
                  "{v1,v2,v6,v8} is independent with |N| = 3, so its "
                  "difference is 1 = d(G) and v8 belongs to the union; the "
                  "same goes for v11 and v13. The graph satisfies "
                  "alpha + mu = n, so the union of critical independent sets "
                  "must equal corona, and exhaustive enumeration confirms "
                  "both are the committed expectation.",
        "d_after_delete.v13": "A hand-derived value of 1 sometimes quoted "
                  "for this deletion misses {v1,v2,v6,v10,v11}, which is "
                  "independent in the graph minus v13 with neighborhood "
                  "{v5,v9,v12}, giving d = 5 - 3 = 2. The same set makes "
                  "v11 a diadem member, so the two corrections share one "
                  "root cause."}),
    ("fig101", "fig101.edges", expect_fig101, None),
    ("fig22.G1", "fig22_g1.edges", expect_fig22_g1, None),
    ("fig22.G2", "fig22_g2.edges", expect_fig22_g2, None),
    ("fig333.G1", "fig333_g1.edges", expect_fig333_g1, None),
    ("fig333.G2", "fig333_g2.edges", expect_fig333_g2, None),
    ("fig333.G3", "fig333_g3.edges", expect_fig333_g3, None),
    ("fig177", "fig177.edges", expect_fig177, None),
    ("fig233", "fig233.edges", expect_fig233, {
        "ker_b": "A hand-derived value {b4, b5, b6} sometimes quoted for this "
                 "graph fails the definition: its deficiency is 3 - 2 = 1, not "
                 "delta0(B) = 2. Exhaustive enumeration finds the B-critical "
                 "sets {b5,b6,b7}, {b4,b5,b6,b7}, {b2,...,b7}, whose "
                 "intersection {b5, b6, b7} is the committed expectation."}),
    ("fig14.G1", "fig14_g1.edges", expect_fig14_g1, None),
    ("fig14.G2", "fig14_g2.edges", expect_fig14_g2, None),
    ("fig222.G1", "fig222_g1.edges", expect_fig222_g1, None),
    ("fig222.G2", "fig222_g2.edges", expect_fig222_g2, None),
    ("fig1777", "fig1777.edges", expect_fig1777, None),
    ("fig17888.G1", "fig17888_g1.edges", expect_fig17888_g1, None),
    ("fig17888.G2", "fig17888_g2.edges", expect_fig17888_g2, None),
]


def build() -> dict[Path, str]:
    """Each sidecar's path and text, derived from its .edges file."""
    sidecars = {}
    for name, filename, expect, notes in FIXTURES:
        path = SRC / filename
        doc = {"name": name, "file": filename,
               "expected": expect(parse_graph(path.read_text()))}
        if notes:
            doc["notes"] = notes
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
