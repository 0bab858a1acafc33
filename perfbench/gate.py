"""Answer gate: every operation's output is checked before it counts.

Two layers of checks:
- at every seed, against `reference.py` (computed without critset) and
  against invariants of the reports (no failures, no violations, no limit
  skips beyond the ones the sizes force);
- at the seeds listed in `frozen/`, against the answers the seed's program
  gave, per operation; for corpora that do not depend on the seed (the
  exhaustive n <= 5 sweeps) at every seed.

`reduce` runs in the worker after each timed call and keeps only what the
checks need; `check` runs in the parent and returns None or a reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import reference as ref

FROZEN_DIR = Path(__file__).resolve().parent / "frozen"

# fields analyze reports as limit-skipped at n > 40 (the alpha engine's limit)
ANALYZE_SKIPS = {False: {"alpha", "core", "corona", "ke"},
                 True: {"alpha", "core", "corona", "ke_identities"}}
ORE_SETS = ("ker_a", "ker_b", "diadem_a", "diadem_b")


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def load_frozen(workload: str) -> dict:
    """Frozen answers; registry-sweep keeps its per-property counts as lists
    in the order of its "properties" entry, turned back into dicts here."""
    path = FROZEN_DIR / f"{workload}.json"
    if not path.exists():
        return {"constants": {}, "seeds": {}}
    doc = json.loads(path.read_text())
    props = doc.get("properties")
    if props is not None:
        for answers in doc["seeds"].values():
            for key, holds in answers.items():
                answers[key] = {"holds": dict(zip(props, holds))}
    return doc


# -- reduce: raw output to the answer the checks need ---------------------------

def reduce(workload: str, text: str) -> dict:
    doc = json.loads(text)
    if workload == "analyze-mid":
        doc.pop("methods", None)
        return doc
    if workload == "registry-sweep":
        verdicts: dict[str, dict[str, int]] = {}
        for graph in doc["graphs"]:
            for res in graph["results"]:
                kind = res["verdict"]
                if kind == "skipped":
                    kind = f"skipped:{res['skip']}"
                slot = verdicts.setdefault(res["property"], {})
                slot[kind] = slot.get(kind, 0) + 1
        s = doc["summary"]
        return {"summary": {k: s[k] for k in ("graphs", "checks", "holds", "fails",
                                              "skipped", "limit_skips")},
                "verdicts": verdicts}
    if workload == "conjecture-scan":
        s = doc["summary"]
        return {"per_n": doc["per_n"], "graphs": s["graphs"],
                "checked": s["checked"], "skipped": len(s["skipped"]),
                "violations": len(s["violations"])}
    raise ValueError(f"no reducer for {workload}")


def frozen_answer(workload: str, answer: dict) -> dict:
    """The part of an answer that is frozen per operation."""
    if workload == "analyze-mid":
        sets = {k: answer[k] for k in ("ker", "diadem")}
        sets["ore"] = {k: v for k, v in answer.get("ore", {}).items()}
        return {"d": answer["d"], "mu": answer["mu"],
                "deficiency": answer["deficiency"],
                "bipartite": answer["bipartite"],
                "skipped": sorted(answer["skipped"]), "sets": digest(sets)}
    if workload == "large-sparse":
        return {"d": answer["d"], "mu": len(answer["matching"]),
                "bipartite": answer["side_a"] is not None}
    if workload == "registry-sweep":
        return {"holds": {p: c.get("holds", 0)
                          for p, c in answer["verdicts"].items()}}
    return {"per_n": digest(answer["per_n"])}


# -- check ------------------------------------------------------------------------

def _labels(g: ref.RefGraph, ids) -> set[str]:
    return {g.labels[v] for v in ids}


def _check_analyze(op: dict, ans: dict, root: Path) -> str | None:
    g = ref.parse_edge_list((root / op["file"]).read_text())
    crit = ref.CriticalRef(g)
    coloring = ref.two_coloring(g)
    if (ans["n"], ans["m"]) != (g.n, sum(map(len, g.adj)) // 2):
        return "n or m differs from the input"
    if ans["bipartite"] != (coloring is not None):
        return "bipartite flag is wrong"
    if ans["d"] != crit.d:
        return f"d={ans['d']}, reference {crit.d}"
    wit = g.ids(ans["witness"])
    if not ref.is_independent(g, wit) or ref.difference(g, wit) != crit.d:
        return "witness is not a critical independent set"
    if set(ans["ker"]) != _labels(g, crit.ker):
        return "ker differs from the reference"
    if set(ans["diadem"]) != _labels(g, crit.diadem()):
        return "diadem differs from the reference"
    if ans["deficiency"] != g.n - 2 * ans["mu"]:
        return "deficiency != n - 2 mu"
    if not set(ans["skipped"]) <= ANALYZE_SKIPS[ans["bipartite"]]:
        return f"new limit skips: {sorted(ans['skipped'])}"
    mu = ref.exact_mu(g)
    if coloring is not None:
        o = ans["ore"]
        a, b = g.ids(o["side_a"]), g.ids(o["side_b"])
        if not ref.is_bipartition(g, a, b):
            return "reported sides are not a bipartition"
        side = ref.side_profile(g, a, b)
        mu = side["mu"]
        for key in ("delta0_a", "delta0_b"):
            if o[key] != side[key]:
                return f"{key} differs from the reference"
        for key in ORE_SETS:
            if set(o[key]) != _labels(g, side[key]):
                return f"{key} differs from the reference"
        if ans["ke"] is not True:
            return "bipartite graph not reported KE"
    if mu is not None and ans["mu"] != mu:
        return f"mu={ans['mu']}, reference {mu}"
    if ans["mu"] > crit.nu // 2:
        return "mu exceeds half the double-cover matching number"
    return None


def _check_sparse(op: dict, ans: dict, root: Path) -> str | None:
    g = ref.parse_edge_list((root / op["file"]).read_text())
    crit = ref.CriticalRef(g)
    if ans["n"] != g.n:
        return "n differs from the input"
    if ans["d"] != crit.d:
        return f"d={ans['d']}, reference {crit.d}"
    wit = g.ids(ans["witness"])
    if not ref.is_independent(g, wit) or ref.difference(g, wit) != crit.d:
        return "witness is not a critical independent set"
    used: set[int] = set()
    for lu, lv in ans["matching"]:
        u, v = g.index[lu], g.index[lv]
        if v not in g.adj[u] or u in used or v in used:
            return "matching is not a matching of the graph"
        used.update((u, v))
    mu = ref.exact_mu(g)
    if mu is not None and len(ans["matching"]) != mu:
        return f"mu={len(ans['matching'])}, reference {mu}"
    if len(ans["matching"]) > crit.nu // 2:
        return "mu exceeds half the double-cover matching number"
    coloring = ref.two_coloring(g)
    if (ans["side_a"] is None) != (coloring is None):
        return "bipartition answer is wrong"
    if coloring is not None:
        a = g.ids(ans["side_a"])
        if not ref.is_bipartition(g, a, set(range(g.n)) - a):
            return "reported sides are not a bipartition"
    return None


def _check_sweep(op: dict, ans: dict, frozen: dict) -> str | None:
    s = ans["summary"]
    if s["fails"] or s["limit_skips"]:
        return f"fails={s['fails']} limit_skips={s['limit_skips']}"
    if s["graphs"] != op["graphs"]:
        return f"{s['graphs']} graphs, expected {op['graphs']}"
    for prop, counts in ans["verdicts"].items():
        if sum(counts.values()) != op["graphs"]:
            return f"{prop}: verdicts do not cover every graph"
    expected = frozen["constants"].get(op["corpus"])
    if expected is not None:
        return _same_verdicts(ans["verdicts"], expected)
    return None


def _same_verdicts(got: dict, expected: dict) -> str | None:
    # properties no longer in the registry are not compared
    for prop, counts in got.items():
        if prop in expected and counts != expected[prop]:
            return f"{prop}: verdicts {counts}, frozen {expected[prop]}"
    return None


def _check_scan(op: dict, ans: dict, frozen: dict) -> str | None:
    if ans["violations"] or ans["skipped"]:
        return f"violations={ans['violations']} skipped={ans['skipped']}"
    if not ans["graphs"] == ans["checked"] == op["graphs"]:
        return f"checked {ans['checked']} of {ans['graphs']} graphs"
    small = frozen["constants"].get("per_n_small", {})
    for n, slot in ans["per_n"].items():
        if n in small:
            if slot != small[n]:
                return f"n={n}: {slot}, frozen {small[n]}"
        elif slot["min_slack"] < 0 or slot["min_slack_upper"] is None \
                or slot["min_slack_upper"] < 0:
            return f"n={n}: negative or missing slack {slot}"
    return None


def check(workload: str, op: dict, answer: dict, root: Path, frozen: dict,
          seed: int) -> str | None:
    """None when the answer is right, else the reason it is not."""
    if workload == "analyze-mid":
        reason = _check_analyze(op, answer, root)
    elif workload == "large-sparse":
        reason = _check_sparse(op, answer, root)
    elif workload == "registry-sweep":
        reason = _check_sweep(op, answer, frozen)
    else:
        reason = _check_scan(op, answer, frozen)
    if reason is not None:
        return reason
    expected = frozen["seeds"].get(str(seed), {}).get(op["key"])
    if expected is None:
        return None
    got = frozen_answer(workload, answer)
    if workload == "registry-sweep":
        return _same_verdicts(got["holds"], expected["holds"])
    if got != expected:
        return f"differs from the frozen answer: {got} != {expected}"
    return None
