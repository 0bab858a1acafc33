"""critset benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. The run writes its inputs under
perfbench/_work/, measures set-up time in fresh interpreters, runs the
workload in one more fresh interpreter (worker.py) as a single-client closed
loop with `--workers 1`, checks every answer (gate.py) and prints the metrics,
one per line with its unit, then provenance, then one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones from a traced pass
(layers.py). It exits non-zero without a result when critset cannot be
imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PAIRS = 15
SETUP_CODE = "import critset, critset.cli; critset.registry()"
BARE_CODE = "pass"

END_TO_END = (("graphs_per_s", "1/s"), ("graph_p50_ms", "ms"),
              ("graph_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CRITSET_WORKERS", None)
    return env


def _spawn(argv: list[str]) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup() -> list[float]:
    """Fresh-interpreter import and registry set-up, in reference seconds.

    Each set-up spawn runs right after a bare interpreter (`-c pass`) and is
    taken as a multiple of it, times clock.BARE_REF_S. Both spawns do the
    same kind of work (start, read and unmarshal bytecode), so the ratio
    cancels the machine's drift, which the calibration loop tracks poorly for
    this work. One warm-up pair first leaves the bytecode cache filled."""
    times = []
    for i in range(SETUP_PAIRS + 1):
        walls = []
        for code in (BARE_CODE, SETUP_CODE):
            rc, wall, _ = _spawn([sys.executable, "-c", code])
            if rc != 0:
                raise BenchError(f"set-up spawn {code!r} exited with {rc}")
            walls.append(wall)
        if i:
            times.append(walls[1] / walls[0] * clock.BARE_REF_S)
    return times


def git_revision() -> str:
    """HEAD of the checkout, read from .git without calling git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "git_revision": git_revision(), "workers": 1, "clients": 1,
            "loop": "closed"}


def run_worker(workload: str, seed: int, count: int, workdir: Path,
               extra: list[str]) -> tuple[dict, float]:
    rounds = inputs.build(workload, seed, count, ROOT, workdir)
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"workload": workload, "rounds": rounds}))
    out = workdir / "out.json"
    code, _, rss = _spawn([sys.executable, str(HERE / "worker.py"), str(plan),
                           str(out), *extra])
    if code != 0 or not out.exists():
        raise BenchError(f"worker exited with {code}")
    result = read_out(out)
    if Path(result["critset_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"critset imported from {result['critset_file']}")
    result["ops"] = {op["key"]: op for rnd in rounds for op in rnd}
    return result, rss


def read_out(path: Path) -> dict:
    """The worker's JSON lines as {"plain", "traced", "cal", "critset_file"}."""
    result: dict = {"plain": [], "traced": []}
    with path.open() as lines:
        for line in lines:
            doc = json.loads(line)
            if "pass" in doc:
                result[doc.pop("pass")].append(doc)
            else:
                result.update(doc)
    return result


def rescale(records: list[dict], cals: list[list[float]]) -> None:
    """Set rec["ndt"], the operation's time in reference-machine seconds."""
    for rec in records:
        rec["ndt"] = rec["dt"] * clock.scale_at(cals, rec["t0"] + rec["dt"] / 2)


def judge(workload: str, seed: int, ops: dict, records: list[dict],
          frozen: dict) -> None:
    """Mark each record ok / wrong / raised, in place."""
    for rec in records:
        op = ops[rec["key"]]
        if "error" in rec:
            rec["status"] = "raised"
        elif rec.get("rc", 0) != 0:
            rec["status"] = "wrong"
            rec["reason"] = f"exit code {rec['rc']}"
        elif "answer" not in rec:
            rec["status"] = "wrong"
        else:
            reason = gate.check(workload, op, rec["answer"], ROOT, frozen, seed)
            rec["status"] = "ok" if reason is None else "wrong"
            if reason is not None:
                rec["reason"] = reason


def summary_correct(records: list[dict]) -> bool:
    """False when any answer was wrong; a raised exception is a failure but
    not a wrong answer."""
    return all(r["status"] != "wrong" for r in records)


def end_to_end(records: list[dict], ops: dict, setup: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """The metrics, plus the details printed beside them."""
    wall = sum(r["ndt"] for r in records)
    raw = sum(r["dt"] for r in records)
    good = [r for r in records if r["status"] == "ok"]
    # latency is over correct operations; a run where none was correct
    # still reports, over all of them
    per_graph = [r["ndt"] / ops[r["key"]]["graphs"] * 1e3
                 for r in good or records]
    if len(per_graph) > stats.TAIL_BEYOND:
        tail_ms, tail_pct = stats.tail(per_graph)
    else:
        tail_ms, tail_pct = max(per_graph), 100.0
    failed = len(records) - len(good)
    values = {"graphs_per_s": sum(ops[r["key"]]["graphs"] for r in good) / wall,
              "graph_p50_ms": stats.median(per_graph),
              "graph_tail_ms": tail_ms,
              "setup_s": stats.median(setup),
              "peak_rss_mb": rss_mb}
    notes = {"graphs_per_s": f"{len(good)} correct operations in {wall:.2f} s "
                             f"({raw:.2f} s before rescaling)",
             "graph_p50_ms": f"median of {len(per_graph)} samples",
             "graph_tail_ms": f"p{tail_pct:.1f}, "
                              f"{sum(x > tail_ms for x in per_graph)} samples "
                              f"beyond it, {len(per_graph)} samples",
             "setup_s": f"median of {len(setup)} fresh interpreters, "
                        f"each over a bare one",
             "peak_rss_mb": "workload process"}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    metrics_all = dict(metrics)
    metrics_all["failed_frac"] = {"value": failed / len(records), "unit": "frac"}
    notes["failed_frac"] = f"{failed} of {len(records)} operations"
    return metrics, {"all": metrics_all, "notes": notes}


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        frozen = gate.load_frozen(workload)
        if trace:
            spans = workdir / "spans.bin"
            result, _ = run_worker(workload, seed,
                                   inputs.TRACE_ROUNDS[workload], workdir,
                                   ["--spans", str(spans)])
            records = result["plain"] + result["traced"]
            rescale(records, result["cal"])
            judge(workload, seed, result["ops"], records, frozen)
            plain = sum(r["ndt"] for r in result["plain"])
            traced = sum(r["ndt"] for r in result["traced"])
            metrics = layers.per_layer(tracer.read_spans(spans), traced / plain - 1)
            notes = {layers.OVERHEAD: f"traced {traced:.2f} s / untraced {plain:.2f} s"}
        else:
            setup = measure_setup()
            result, rss = run_worker(workload, seed,
                                     inputs.rounds_for(workload, seconds),
                                     workdir, [])
            records = result["plain"]
            rescale(records, result["cal"])
            judge(workload, seed, result["ops"], records, frozen)
            metrics, extra = end_to_end(records, result["ops"], setup, rss)
            notes = extra["notes"]
            print(f"{workload} seed={seed}: end-to-end")
            print_metrics(extra["all"], notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        print(f"{workload} seed={seed}: per layer (traced pass)")
        print_metrics(metrics, notes)
    for rec in records:
        if rec["status"] != "ok":
            print(f"  {rec['status']}: {rec['key']}: "
                  f"{rec.get('reason', rec.get('error'))}")
    print("provenance " + json.dumps(provenance(workload, seed)))
    return {"correct": summary_correct(records),
            "attempted": len(records),
            "failed": sum(1 for r in records if r["status"] != "ok"),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child and deletes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "critset" / "__init__.py").exists():
        print(f"error: no critset package under {SRC}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}.{k}": v for w, r in results.items()
                               for k, v in r["metrics"].items()}}
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
