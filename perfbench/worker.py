"""One workload process: a closed loop over the planned operations.

Run by run.py in a fresh interpreter with the checkout's `src` on PYTHONPATH:

    python3 perfbench/worker.py PLAN OUT [--spans FILE]

It runs every planned round once, in order. With --spans it then installs
the tracer, runs the same rounds again and writes the spans to FILE. Only the
operation itself is timed; turning its output into an answer happens after
the clock stops.

OUT is written as JSON lines: one record per operation, appended and dropped
as soon as the operation ends, so the answers the benchmark keeps do not add
to the process's peak memory; then one last line with the calibration loops
and where critset was imported from. run.read_out() reads it back.

Between operations, at most every CAL_EVERY_S seconds, the worker times
clock.calibrate(); run.py rescales each operation's time by the loops around
it (see clock.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import critset
import critset.cli

import gate
import tracer as tracing
from clock import CAL_EVERY_S, calibrate


def run_readme_path(path: str):
    """The README's Python quick start on one large graph."""
    g = critset.parse_graph(Path(path).read_text())
    d = critset.critical_difference(g)
    witness = critset.critical_independent_witness(g)
    matching = critset.maximum_matching_general(g)
    parts = critset.bipartition(g)
    return g, d, witness, matching, parts


def sparse_answer(result) -> dict:
    g, d, witness, matching, parts = result
    lab = g.labels
    return {"n": g.n, "d": d, "witness": g.label_list(witness),
            "matching": [[lab[u], lab[v]] for u, v in sorted(matching.edges)],
            "side_a": None if parts is None else g.label_list(parts.side_a)}


def run_op(workload: str, op: dict) -> dict:
    """Time one operation; any exception or exit code is recorded, not raised.
    A SystemExit is an exit code, not an exception."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    record = {"key": op["key"], "t0": t0}
    try:
        if workload == "large-sparse":
            result = run_readme_path(op["file"])
        else:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(io.StringIO()):
                result = critset.cli.main(op["argv"])
    except SystemExit as exc:
        record["dt"] = time.perf_counter() - t0
        record["rc"] = exit_code(exc)
        return record
    except Exception as exc:  # the failure is the measurement
        record["dt"] = time.perf_counter() - t0
        record["error"] = type(exc).__name__
        return record
    record["dt"] = time.perf_counter() - t0
    if workload == "large-sparse":
        record["answer"] = sparse_answer(result)
        return record
    record["rc"] = result
    if result == 0:
        try:
            record["answer"] = gate.reduce(workload, sink.getvalue())
        except (ValueError, KeyError) as exc:
            record["reason"] = f"unreadable output: {exc!r}"
    return record


def exit_code(exc: SystemExit) -> int:
    """The process exit code a SystemExit stands for."""
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_rounds(workload: str, rounds: list[list[dict]], cals: list, out,
               pass_name: str, hook=None) -> None:
    """Run every round; append each record to out as one JSON line."""
    cals.append(calibrate())
    count = 0
    for r, ops in enumerate(rounds):
        for op in ops:
            if hook is not None:
                hook(count)
            rec = run_op(workload, op)
            rec["round"], rec["pass"] = r, pass_name
            out.write(json.dumps(rec) + "\n")
            del rec  # not kept alive through the next operation
            count += 1
            if time.perf_counter() - cals[-1][0] >= CAL_EVERY_S:
                cals.append(calibrate())
    cals.append(calibrate())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("out")
    ap.add_argument("--spans")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    workload, rounds = plan["workload"], plan["rounds"]
    cals: list = []
    with open(args.out, "w") as out:
        run_rounds(workload, rounds, cals, out, "plain")
        if args.spans:
            tr = tracing.Tracer()
            tracing.install(tr)

            def set_op(i: int) -> None:
                tr.op_id = i
            run_rounds(workload, rounds, cals, out, "traced", hook=set_op)
            tr.write(Path(args.spans))
        out.write(json.dumps({"critset_file": critset.__file__, "cal": cals})
                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
