"""Corpora, the conjecture scan and counterexample shrinking.

A corpus is a list of sources: the bundled fixtures, every labeled graph of
one order, a seeded random stream keyed by (seed, index), or graph files.
iter_graphs yields their graphs in corpus order; the property runner in
props reads it, and conjecture_scan checks the sandwich
|ker| + |diadem| <= 2*alpha <= |core| + |corona| over it, shrinking any
violation to a small witness. Only the commands that take a corpus
(fuzz, exhaustive, conjecture) import this module, so analyze, check and a
plain `import critset` never compile it.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .graphs import (EXHAUSTIVE_MAX_N, Graph, LimitExceeded, all_graphs,
                     delete_edge, delete_vertices, graph_from_code,
                     orbit_leaders, random_graph, read_graph_file)
from .oracle import Config, Facts


# -- corpora ---------------------------------------------------------------------

class CorpusSource(NamedTuple):
    kind: str  # fixtures | exhaustive | random | files
    params: tuple

    def describe(self) -> dict:
        if self.kind == "fixtures":
            return {"kind": "fixtures"}
        if self.kind == "exhaustive":
            return {"kind": "exhaustive", "n": self.params[0]}
        if self.kind == "random":
            lo, hi, p, count, seed = self.params
            return {"kind": "random", "n": [lo, hi], "p": p,
                    "count": count, "seed": seed}
        return {"kind": "files", "paths": list(self.params)}


class CorpusSpec(NamedTuple):
    sources: tuple[CorpusSource, ...]

    def describe(self) -> dict:
        return {"sources": [s.describe() for s in self.sources]}


def fixtures_corpus() -> CorpusSpec:
    return CorpusSpec((CorpusSource("fixtures", ()),))


def exhaustive_corpus(*ns: int) -> CorpusSpec:
    for n in ns:
        if n < 0:
            raise ValueError(f"exhaustive source needs n >= 0, got {n}")
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive source supports n <= "
                             f"{EXHAUSTIVE_MAX_N}, got {n}")
    return CorpusSpec(tuple(CorpusSource("exhaustive", (n,)) for n in ns))


def random_corpus(lo: int, hi: int, p: float, count: int,
                  seed: int) -> CorpusSpec:
    if not 0 <= lo <= hi:
        raise ValueError(f"random source needs 0 <= lo <= hi, got n = "
                         f"[{lo}, {hi}]")
    if not 0 <= p <= 1:  # NaN fails both comparisons
        raise ValueError(f"random source needs 0 <= p <= 1, got p = {p}")
    if count < 0:
        raise ValueError(f"random source needs count >= 0, got {count}")
    return CorpusSpec((CorpusSource("random", (lo, hi, p, count, seed)),))


def files_corpus(paths: list[str]) -> CorpusSpec:
    """A source of graph files. A string is refused, not read as the files
    named by its letters, and so is a path that is not a string."""
    if not isinstance(paths, (list, tuple)):
        raise ValueError(f"files source needs a list of paths, got {paths!r}")
    for path in paths:
        if type(path) is not str:
            raise ValueError(f"files source needs a path string in paths, "
                             f"got {json.dumps(path, default=repr)}")
    return CorpusSpec((CorpusSource("files", tuple(paths)),))


# the fields each kind of corpus source takes besides "kind"
_SOURCE_FIELDS = {"fixtures": (), "exhaustive": ("n",),
                  "random": ("n", "p", "count", "seed"), "files": ("paths",)}


def _spec_int(kind: str, field: str, value) -> int:
    """An integer field of a corpus source. Anything but a JSON integer is
    refused: int() would truncate a float, read a bool as 0 or 1 and a
    numeric string as its number."""
    if type(value) is not int:
        raise ValueError(f"{kind} source needs an integer {field}, "
                         f"got {json.dumps(value)}")
    return value


def parse_corpus_spec(text: str) -> CorpusSpec:
    """Read the JSON corpus description used by the command line."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus spec is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("sources"), list):
        raise ValueError("corpus spec must be an object with a 'sources' list")
    sources = []
    for entry in doc["sources"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"corpus source needs a 'kind': {entry!r}")
        kind = entry["kind"]
        fields = _SOURCE_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise ValueError(f"unknown corpus source kind {kind!r}")
        for key in entry:
            if key != "kind" and key not in fields:
                raise ValueError(
                    f"{kind} source has no field {json.dumps(key)}")
        try:
            if kind == "fixtures":
                spec = fixtures_corpus()
            elif kind == "exhaustive":
                spec = exhaustive_corpus(_spec_int(kind, "n", entry["n"]))
            elif kind == "random":
                if not (isinstance(entry["n"], list) and len(entry["n"]) == 2):
                    raise ValueError(f"random source needs n = [lo, hi], "
                                     f"got {json.dumps(entry['n'])}")
                lo, hi = (_spec_int(kind, "n", v) for v in entry["n"])
                if type(entry["p"]) not in (int, float):
                    raise ValueError(f"random source needs a number p, "
                                     f"got {json.dumps(entry['p'])}")
                spec = random_corpus(
                    lo, hi, float(entry["p"]),
                    _spec_int(kind, "count", entry["count"]),
                    _spec_int(kind, "seed", entry["seed"]))
            else:
                spec = files_corpus(entry["paths"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad corpus source {entry!r}: {exc}")
        sources += spec.sources
    return CorpusSpec(tuple(sources))


def random_graph_at(lo: int, hi: int, p: float, seed: int, k: int) -> Graph:
    """Graph #k of a random corpus; the generator is keyed by (seed, k), so
    any single index is reproducible without replaying the stream."""
    rng = random.Random(seed * 1_000_003 + k)
    n = rng.randrange(lo, hi + 1)
    return random_graph(n, p, rng.getrandbits(32))


def _exhaustive_key(n: int, code: int) -> str:
    return f"exhaustive:n={n}:{code}"


def iter_graphs(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    for src in spec.sources:
        if src.kind == "fixtures":
            from . import fixtures
            for name in fixtures.fixture_names():
                yield f"fixture:{name}", fixtures.load(name).graph
        elif src.kind == "exhaustive":
            n = src.params[0]
            for code, g in enumerate(all_graphs(n)):
                yield _exhaustive_key(n, code), g
        elif src.kind == "random":
            lo, hi, p, count, seed = src.params
            for k in range(count):
                yield (f"random:seed={seed}:{k}",
                       random_graph_at(lo, hi, p, seed, k))
        elif src.kind == "files":
            for path in src.params:
                yield f"file:{path}", read_graph_file(path)
        else:
            raise ValueError(f"unknown corpus source kind {src.kind!r}")


# -- conjecture scan ---------------------------------------------------------

def _lower_slack(f: Facts) -> int:
    """2*alpha - |ker| - |diadem|; negative means a counterexample to the
    proved lower bound."""
    return 2 * f.alpha() - f.ker().bit_count() - f.diadem().bit_count()


def _upper_slack(f: Facts) -> int:
    """|core| + |corona| - 2*alpha, behind the oracle limit; negative means
    a counterexample to the proved upper bound."""
    p = f.mis_profile()
    return p.core.bit_count() + p.corona.bit_count() - 2 * p.alpha


def _graph_doc(g: Graph) -> dict:
    return {"n": g.n, "m": g.m,
            "edges": [[g.labels[u], g.labels[v]] for u, v in g.edge_pairs()]}


def _slacks(facts: Facts) -> tuple[int, int | None] | str:
    """The lower and upper slack of one graph, the upper one None past the
    oracle limit, or the reason the lower one was skipped."""
    try:
        lower = _lower_slack(facts)
    except LimitExceeded as exc:
        return str(exc)
    try:
        upper = _upper_slack(facts)
    except LimitExceeded:
        upper = None
    return lower, upper


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[tuple[int, int], ...]:
    """(leader, size) of each isomorphism class of all_graphs(n), in
    increasing leader order, as a leader is the first code of its class.
    Kept per n (1,044 pairs at n = 7); the leader list is not."""
    return tuple(Counter(orbit_leaders(n)).items())


def _scan_slacks(corpus: CorpusSpec, config: Config
                 ) -> Iterator[tuple[str, int, int, Facts, tuple | str]]:
    """Key, order, count, facts and _slacks of the corpus graphs; count is
    how many corpus graphs the entry stands for.

    Both slacks and every limit are isomorphism invariants, as relabelling
    maps ker, diadem, core and corona onto those of the relabelled graph.
    So an exhaustive source evaluates the first graph of each isomorphism
    class and counts its outcome once for the whole class. A class whose
    outcome is a skip or a violation is evaluated again member by member, in
    code order, so each report entry names its own graph. The class sizes
    are kept per n; only that member pass builds the leader list again.
    """
    for src in corpus.sources:
        if src.kind != "exhaustive":
            for key, g in iter_graphs(CorpusSpec((src,))):
                facts = Facts(g, config)
                yield key, g.n, 1, facts, _slacks(facts)
            continue
        n = src.params[0]
        recheck = set()
        for leader, size in _class_sizes(n):
            facts = Facts(graph_from_code(n, leader), config)
            outcome = _slacks(facts)
            if type(outcome) is str or min(outcome[0], outcome[1] or 0) < 0:
                recheck.add(leader)
            else:
                yield _exhaustive_key(n, leader), n, size, facts, outcome
        if recheck:
            for code, leader in enumerate(orbit_leaders(n)):
                if leader in recheck:
                    facts = Facts(graph_from_code(n, code), config)
                    yield (_exhaustive_key(n, code), n, 1, facts,
                           _slacks(facts))


def conjecture_scan(corpus: CorpusSpec,
                    config: Config | None = None) -> dict:
    """Check |ker| + |diadem| <= 2*alpha <= |core| + |corona| per graph.

    T. Short proved the lower bound (Electron. J. Combin. 23(2) (2016),
    #P2.43), so a violation would be a fault in the library, not in the
    theory: the scan records the minimum slack per graph order and shrinks
    any violation it finds. Limit-exceeded graphs are listed, never dropped.
    Exhaustive sources evaluate one graph per isomorphism class.
    """
    config = config if config is not None else Config()
    per_n: dict[int, dict] = {}
    violations = []
    skipped = []
    graphs = checked = 0

    for key, n, count, facts, outcome in _scan_slacks(corpus, config):
        graphs += count
        if type(outcome) is str:
            skipped.append({"graph": key, "reason": outcome})
            continue
        lower, upper = outcome
        checked += count
        slot = per_n.setdefault(n, {"graphs": 0, "min_slack": None,
                                    "min_slack_upper": None})
        slot["graphs"] += count
        if slot["min_slack"] is None or lower < slot["min_slack"]:
            slot["min_slack"] = lower
        if upper is not None and (slot["min_slack_upper"] is None
                                  or upper < slot["min_slack_upper"]):
            slot["min_slack_upper"] = upper

        if lower < 0:
            g, a = facts.g, facts.alpha()
            small = shrink(g, lambda h: _lower_slack(Facts(h, config)) < 0)
            shrunk = Facts(small, config)
            violations.append({
                "graph": key, "kind": "ker-diadem", **_graph_doc(g),
                "ker": g.label_list(facts.ker()),
                "diadem": g.label_list(facts.diadem()),
                "alpha": a, "lhs": 2 * a - lower, "rhs": 2 * a,
                "shrunk": {**_graph_doc(small),
                           "lhs": 2 * shrunk.alpha() - _lower_slack(shrunk),
                           "rhs": 2 * shrunk.alpha()}})
        if upper is not None and upper < 0:
            g, a = facts.g, facts.alpha()
            small = shrink(g, lambda h: _upper_slack(Facts(h, config)) < 0)
            violations.append({
                "graph": key, "kind": "core-corona", **_graph_doc(g),
                "alpha": a, "lhs": 2 * a, "rhs": 2 * a + upper,
                "shrunk": _graph_doc(small)})

    mins = [slot["min_slack"] for slot in per_n.values()
            if slot["min_slack"] is not None]
    mins_up = [slot["min_slack_upper"] for slot in per_n.values()
               if slot["min_slack_upper"] is not None]
    return {
        "schema": 1,
        "kind": "conjecture-scan",
        "corpus": corpus.describe(),
        "per_n": {str(n): per_n[n] for n in sorted(per_n)},
        "summary": {
            "graphs": graphs,
            "checked": checked,
            "skipped": skipped,
            "violations": violations,
            "min_slack": min(mins) if mins else None,
            "min_slack_upper": min(mins_up) if mins_up else None,
        },
    }


# -- shrinking -----------------------------------------------------------------

def shrink(g: Graph, failing: Callable[[Graph], bool]) -> Graph:
    """Greedily delete vertices (by id), then edges (lexicographic), keeping
    the predicate failing; restarts after every success, so the result is a
    deterministic local minimum."""
    if not failing(g):
        raise ValueError("shrink needs a graph the predicate fails on")
    current = g
    while True:
        for v in range(current.n):
            smaller, _ = delete_vertices(current, 1 << v)
            if failing(smaller):
                current = smaller
                break
        else:
            for u, v in current.edge_pairs():
                smaller = delete_edge(current, u, v)
                if failing(smaller):
                    current = smaller
                    break
            else:
                return current
