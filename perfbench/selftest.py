"""Self-tests of the benchmark's own logic (not of critset).

    python3 perfbench/selftest.py

Covers metric names against BENCHMARK.json, the tail-percentile rule, span
self time, and failure counting with an injected exception, an injected
non-zero exit (returned, or raised as SystemExit) and an injected wrong
answer, and the worker's JSON-lines output.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import unittest
from array import array
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_match_run(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))

    def test_per_layer_names_match_layers(self):
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.spec["per_layer"]],
                         layers.metric_specs())

    def test_workloads_match_inputs(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(inputs.WORKLOADS))

    def test_names_and_units_are_well_formed(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["unit"], UNIT)

    def test_every_span_the_metrics_name_is_a_critset_function(self):
        import critset.cli  # noqa: F401  (loads every module)
        for span, _ in layers.LAYER_METRICS:
            module, _, attr = span.partition(".")
            if span == "props.facts.tables":
                continue
            mod = sys.modules[f"critset.{module}"]
            self.assertTrue(callable(getattr(mod, attr)), span)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct = stats.tail([float(x) for x in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)

    def test_smallest_sample_count(self):
        value, pct = stats.tail([float(x) for x in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(pct, 100 / 11)

    def test_ties_never_leave_fewer_than_ten_beyond(self):
        xs = [1.0] * 5 + [2.0] * 10 + [3.0] * 3
        value, _ = stats.tail(xs)
        self.assertEqual(value, 1.0)
        self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 30)


class SelfTime(unittest.TestCase):
    def test_child_time_is_subtracted_once(self):
        spans = {"names": ["a", "b"], "calls": [2, 1], "vertices": [0, 0],
                 "yielded": [0, 0], "counters": {},
                 "name": array("i", [0, 1, 0]),
                 "start": array("d", [0.0, 1.0, 1.5]),
                 "end": array("d", [4.0, 3.0, 2.0]),
                 "parent": array("i", [-1, 0, 1]),
                 "op": array("i", [0, 0, 0]),
                 "nested": bytes([0, 0, 1])}
        agg = layers.aggregate(spans)
        self.assertAlmostEqual(agg["a"]["ms"], 4000.0)  # nested a not re-added
        self.assertAlmostEqual(agg["a"]["self_ms"], 2000.0 + 500.0)
        self.assertAlmostEqual(agg["b"]["self_ms"], 1500.0)


class FailureCounting(unittest.TestCase):
    """One small analyze-mid operation, run for real, then broken on purpose."""

    @classmethod
    def setUpClass(cls):
        cls.work = run.WORK / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.op = inputs.build("analyze-mid", 7, 1, run.ROOT, cls.work)[0][0]
        cls.frozen = {"constants": {}, "seeds": {}}
        cls.cwd = Path.cwd()
        import os
        os.chdir(run.ROOT)

    @classmethod
    def tearDownClass(cls):
        import os
        os.chdir(cls.cwd)
        shutil.rmtree(cls.work, ignore_errors=True)

    def judged(self, rec: dict) -> dict:
        rec.setdefault("ndt", rec["dt"])
        run.judge("analyze-mid", 7, {self.op["key"]: self.op}, [rec], self.frozen)
        return rec

    def test_real_answer_passes(self):
        rec = self.judged(worker.run_op("analyze-mid", self.op))
        self.assertEqual(rec["status"], "ok", rec.get("reason"))

    def test_injected_exception_counts_as_failed(self):
        with mock.patch("critset.cli.main", side_effect=RecursionError):
            rec = self.judged(worker.run_op("analyze-mid", self.op))
        self.assertEqual(rec["status"], "raised")
        self.assertEqual(rec["error"], "RecursionError")

    def test_injected_exit_code_counts_as_wrong(self):
        with mock.patch("critset.cli.main", return_value=1):
            rec = self.judged(worker.run_op("analyze-mid", self.op))
        self.assertEqual(rec["status"], "wrong")

    def test_injected_system_exit_counts_as_wrong(self):
        with mock.patch("critset.cli.main", side_effect=SystemExit(2)):
            rec = self.judged(worker.run_op("analyze-mid", self.op))
        self.assertEqual(rec["rc"], 2)
        self.assertEqual(rec["status"], "wrong")
        self.assertFalse(run.summary_correct([rec]))

    def test_system_exit_codes(self):
        self.assertEqual(worker.exit_code(SystemExit()), 0)
        self.assertEqual(worker.exit_code(SystemExit(3)), 3)
        self.assertEqual(worker.exit_code(SystemExit("usage")), 1)

    def test_injected_wrong_answer_counts_as_wrong(self):
        rec = worker.run_op("analyze-mid", self.op)
        rec["answer"]["ker"] = rec["answer"]["ker"][1:] or ["not-a-vertex"]
        self.assertEqual(self.judged(rec)["status"], "wrong")

    def test_worker_output_round_trips(self):
        out = self.work / "out.jsonl"
        cals: list = []
        with out.open("w") as f:
            worker.run_rounds("analyze-mid", [[self.op]], cals, f, "plain")
            f.write(json.dumps({"critset_file": "x", "cal": cals}) + "\n")
        result = run.read_out(out)
        self.assertEqual([r["key"] for r in result["plain"]], [self.op["key"]])
        self.assertEqual(result["traced"], [])
        self.assertEqual(len(result["cal"]), 2)
        self.assertEqual(self.judged(result["plain"][0])["status"], "ok")

    def test_metrics_count_failures_and_their_time(self):
        ok = self.judged(worker.run_op("analyze-mid", self.op))
        records = [dict(ok, ndt=0.1 + i / 100) for i in range(14)]
        records[0] = dict(records[0], status="raised", ndt=1.0)
        records[1] = dict(records[1], status="wrong", ndt=1.0)
        ops = {self.op["key"]: self.op}
        metrics, extra = run.end_to_end(records, ops, [0.1, 0.2, 0.3], 10.0)
        good = [0.1 + i / 100 for i in range(2, 14)]
        self.assertEqual(extra["all"]["failed_frac"]["value"], 2 / 14)
        self.assertAlmostEqual(metrics["graphs_per_s"]["value"],
                               12 / (2.0 + sum(good)))
        self.assertAlmostEqual(metrics["graph_tail_ms"]["value"], good[1] * 1e3)
        self.assertEqual(metrics["setup_s"]["value"], 0.2)
        self.assertEqual(set(metrics), {n for n, _ in run.END_TO_END})


class FrozenGate(unittest.TestCase):
    def test_frozen_mismatch_is_reported(self):
        answer = {"d": 1, "mu": 2, "deficiency": 1, "bipartite": False,
                  "skipped": {}, "ker": [], "diadem": []}
        got = gate.frozen_answer("analyze-mid", answer)
        self.assertEqual(got, gate.frozen_answer("analyze-mid", dict(answer)))
        self.assertNotEqual(got, gate.frozen_answer("analyze-mid",
                                                    dict(answer, ker=["x"])))


if __name__ == "__main__":
    unittest.main()
