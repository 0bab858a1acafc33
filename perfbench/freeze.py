"""Freeze the current program's answers for the answer gate.

    python3 perfbench/freeze.py --seeds 1 2

Runs, at each seed and for every workload, the rounds a run of
BENCHMARK.json's run_seconds measures; every answer must first pass the
reference checks in gate.py. Writes perfbench/frozen/<workload>.json. Run
it only on a program whose answers are trusted: the files define what later
runs must reproduce.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import gate
import inputs


def freeze(workload: str, seeds: list[int], seconds: int) -> dict:
    doc: dict = {"constants": {}, "seeds": {}}
    for seed in seeds:
        workdir = run.WORK / f"freeze-{workload}-s{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            result, _ = run.run_worker(workload, seed,
                                       inputs.rounds_for(workload, seconds),
                                       workdir, [])
            records = result["plain"]
            run.judge(workload, seed, result["ops"], records,
                      {"constants": {}, "seeds": {}})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wrong = [r for r in records if r["status"] == "wrong"]
        if wrong:
            raise SystemExit(f"{workload} seed {seed}: wrong answers {wrong[:3]}")
        answers = doc["seeds"][str(seed)] = {}
        for rec in records:
            if rec["status"] != "ok":
                continue
            answers[rec["key"]] = gate.frozen_answer(workload, rec["answer"])
            corpus = result["ops"][rec["key"]].get("corpus", "")
            if corpus.startswith("exhaustive"):
                doc["constants"][corpus] = rec["answer"]["verdicts"]
            if workload == "conjecture-scan":
                doc["constants"]["per_n_small"] = {
                    n: slot for n, slot in rec["answer"]["per_n"].items()
                    if int(n) <= max(inputs.SCAN_EXHAUSTIVE)}
    if workload == "registry-sweep":
        props = sorted(doc["constants"]["exhaustive5"])  # the whole registry
        doc["properties"] = props
        for answers in doc["seeds"].values():
            for key, ans in answers.items():
                answers[key] = [ans["holds"].get(p, 0) for p in props]
    return doc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    gate.FROZEN_DIR.mkdir(exist_ok=True)
    for workload in inputs.WORKLOADS:
        doc = freeze(workload, args.seeds, spec["run_seconds"])
        path = gate.FROZEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                        + "\n")
        print(f"{workload}: {sum(map(len, doc['seeds'].values()))} answers -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
