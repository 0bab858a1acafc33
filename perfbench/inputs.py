"""Seeded inputs for the four workloads, written as edge-list and corpus files.

A workload is a list of rounds; a round is a fixed mix of operations (one per
size stratum and graph family), so every round costs about the same and a run
that measures whole rounds sees the same mix at every seed. Each operation is
one call a user would make: `critset.cli.main(argv)`, or for `large-sparse`
the README's Python calls on one edge-list file. The program sees only the
files; the graphs are drawn here, with this module's own generators.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("analyze-mid", "registry-sweep", "conjecture-scan", "large-sparse")

# rounds a 20-second run measures: about 20 s of the seed's program on the
# reference machine (about 29 s for registry-sweep and 22 s for analyze-mid,
# whose latency figures need more samples). The count is fixed, not timed, so the sample count and
# mix do not depend on how fast the program is. With an odd number of strata
# per round and these counts, the median and the 11th-largest sample fall
# inside a stratum rather than on the gap between two.
ROUNDS_PER_20S = {"analyze-mid": 4, "registry-sweep": 7, "conjecture-scan": 11,
                  "large-sparse": 5}
# rounds run by each pass (untraced, then traced) of a --trace 1 run
TRACE_ROUNDS = {"analyze-mid": 2, "registry-sweep": 2, "conjecture-scan": 3,
                "large-sparse": 1}

# 15 graphs, 8 G(n,m) and 7 bipartite, n from 60 to 250, listed by cost.
# gnm136 and bip150 appear three times: with four rounds the median is the
# middle of the 12 gnm136 samples (six strata cost less, six more) and the
# 11th-largest sample the third of the 12 bip150 ones (two strata cost
# more), so each is read off 12 samples, not four
ANALYZE_STRATA = ("gnm60", "bip66", "gnm74", "bip81", "gnm90", "gnm111",
                  "gnm136", "gnm136", "gnm136", "bip122",
                  "bip150", "bip150", "bip150", "bip184", "gnm250")
AVG_DEGREE = 2.5
# with 21 fuzz calls, two exhaustive sweeps make an odd stratum count
SWEEP_EXHAUSTIVE = (4, 5)
FUZZ_PS = (0.15, 0.3, 0.5)
FUZZ_NS = range(8, 15)
FUZZ_COUNT = 7
SCAN_PS = (0.2, 0.35, 0.5)
SCAN_COUNT = 30
SCAN_EXHAUSTIVE = (1, 2, 3, 4, 5)
# 2990 and 4470 appear three times: the median falls in the middle of the 15
# graphs of 2990 (four passing strata lie below them, four above) and the
# 11th-largest sample among the 4470 ones, so each is read off 15 samples,
# not the 5 of a single stratum
SPARSE_GNM_SIZES = (2000, 2450, 2990, 2990, 2990, 4470, 4470, 4470, 10000)
# shuffled chains of 2000 always passed (40 of 40); those of 12000 raised
# RecursionError 40 times in 40 in a direct test, and about 19 times in 20
# inside the benchmark; sizes in between go either way
SPARSE_CHAIN_SIZES = (2000, 12000)

WORKERS = ["--workers", "1"]


def _gnm_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, m) with m = AVG_DEGREE * n / 2: m distinct pairs drawn uniformly.

    The fixed-edge-count form of G(n, p). With G(n, p) the edge count, and
    with it the cost of a graph, varies by about 8% at n = 136, which was a
    large part of the run-to-run spread of the latency figures."""
    m = round(AVG_DEGREE * n / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _bipartite_edges(a: int, b: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random bipartite graph on sides 0..a-1 and a..a+b-1 with
    AVG_DEGREE * (a + b) / 2 distinct edges drawn uniformly."""
    m = round(AVG_DEGREE * (a + b) / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        edges.add((rng.randrange(a), a + rng.randrange(b)))
    return sorted(edges)


def _chain_edges(n: int, closed: bool) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    if closed:
        edges.append((n - 1, 0))
    return edges


def edge_list_text(n: int, edges: list[tuple[int, int]],
                   rng: random.Random) -> str:
    """Relabel by a random permutation, declare every vertex in a random order,
    then list the edges in a random order and orientation."""
    labels = list(range(n))
    rng.shuffle(labels)
    order = list(range(n))
    rng.shuffle(order)
    lines = [f"vertex {labels[v]}" for v in order]
    edges = list(edges)
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{labels[u]} {labels[v]}")
    return "\n".join(lines) + "\n"


def _analyze_round(r: int, rng: random.Random, out: Path, rel: Path) -> list[dict]:
    ops = []
    for j, tag in enumerate(ANALYZE_STRATA):
        family, n = tag[:3], int(tag[3:])
        if family == "gnm":
            edges = _gnm_edges(n, rng)
        else:
            edges = _bipartite_edges(n // 2, n - n // 2, rng)
        name = f"r{r}-{tag}-{j}.edges"
        (out / name).write_text(edge_list_text(n, edges, rng))
        ops.append({"key": f"r{r}:{tag}-{j}", "graphs": 1,
                    "file": str(rel / name),
                    "argv": ["analyze", str(rel / name), "--json", *WORKERS]})
    return ops


def _sweep_round(r: int, rng: random.Random, out: Path, rel: Path) -> list[dict]:
    ops = [{"key": f"r{r}:exhaustive{n}", "graphs": 1 << n * (n - 1) // 2,
            "corpus": f"exhaustive{n}",
            "argv": ["exhaustive", "--n", str(n), "--json", *WORKERS]}
           for n in SWEEP_EXHAUSTIVE]
    for p in FUZZ_PS:
        for n in FUZZ_NS:
            seed = rng.getrandbits(31)
            ops.append({"key": f"r{r}:fuzz-p{p}-n{n}", "graphs": FUZZ_COUNT,
                        "corpus": "fuzz",
                        "argv": ["fuzz", "--n", f"{n}..{n}", "--p", str(p),
                                 "--count", str(FUZZ_COUNT), "--seed", str(seed),
                                 "--json", *WORKERS]})
    return ops


def _scan_round(r: int, rng: random.Random, out: Path, rel: Path) -> list[dict]:
    ops = []
    for p in SCAN_PS:
        sources = [{"kind": "exhaustive", "n": k} for k in SCAN_EXHAUSTIVE]
        sources.append({"kind": "random", "n": [10, 16], "p": p,
                        "count": SCAN_COUNT, "seed": rng.getrandbits(31)})
        name = f"r{r}-scan-p{p}.json"
        (out / name).write_text(json.dumps({"sources": sources}))
        ops.append({"key": f"r{r}:scan-p{p}",
                    "graphs": sum(1 << k * (k - 1) // 2 for k in SCAN_EXHAUSTIVE)
                    + SCAN_COUNT,
                    "argv": ["conjecture", "--corpus", str(rel / name), "--json",
                             *WORKERS]})
    return ops


def _sparse_round(r: int, rng: random.Random, out: Path, rel: Path) -> list[dict]:
    graphs = [(f"gnm{n}-{j}", n, _gnm_edges(n, rng))
              for j, n in enumerate(SPARSE_GNM_SIZES)]
    for n in SPARSE_CHAIN_SIZES:
        graphs.append((f"path{n}", n, _chain_edges(n, False)))
        graphs.append((f"cycle{n}", n, _chain_edges(n, True)))
    ops = []
    for tag, n, edges in graphs:
        name = f"r{r}-{tag}.edges"
        (out / name).write_text(edge_list_text(n, edges, rng))
        ops.append({"key": f"r{r}:{tag}", "graphs": 1, "file": str(rel / name)})
    return ops


_ROUND = {"analyze-mid": _analyze_round, "registry-sweep": _sweep_round,
          "conjecture-scan": _scan_round, "large-sparse": _sparse_round}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_PER_20S[workload] * seconds / 20))


def build(workload: str, seed: int, rounds: int, root: Path,
          workdir: Path) -> list[list[dict]]:
    """Write the inputs of the first `rounds` rounds under workdir; return the
    rounds, with file paths relative to the checkout root. Round r is the
    same for every count that includes it."""
    rng = random.Random(f"{workload}/{seed}")
    rel = workdir.relative_to(root)
    return [_ROUND[workload](r, rng, workdir, rel) for r in range(rounds)]
