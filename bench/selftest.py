#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Not collected by the repository's pytest run (the file name does not match
``test_*.py``); the last two tests start real workload processes and take
about ten seconds.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads


class SpanArithmetic(unittest.TestCase):
    def test_nested_self_time(self):
        # correlation_matrix [0, 10] holds two cf_bandpass calls of 2 and 4
        spans = [["workload", 0.0, 12.0, -1, "r", None],
                 ["empirics.correlation_matrix", 1.0, 11.0, 0, "r", {"pairs": 3}],
                 ["empirics.cf_bandpass", 2.0, 4.0, 1, "r", None],
                 ["empirics.cf_bandpass", 5.0, 9.0, 1, "r", None]]
        self.assertEqual(tracer.self_times(spans), [2.0, 4.0, 2.0, 4.0])
        agg = tracer.by_name(spans)
        self.assertEqual(agg["empirics.correlation_matrix"]["self_s"], 4.0)
        self.assertEqual(agg["empirics.cf_bandpass"]["self_s"], 6.0)
        self.assertEqual(agg["empirics.cf_bandpass"]["calls"], 2)
        metrics = tracer.layer_metrics(spans, {"hits": 1, "misses": 1})
        self.assertEqual(metrics["empirics.correlation_matrix.self_s"], 4.0)
        self.assertEqual(metrics["empirics.pairs_per_s"], 0.75)
        self.assertAlmostEqual(metrics["empirics.share"], 10.0 / 12.0)
        self.assertAlmostEqual(metrics["harness.share"], 2.0 / 12.0)
        self.assertEqual(set(metrics) | {"trace.overhead_frac"}, set(tracer.UNITS))

    def test_wrapped_calls_nest_and_same_name_counts_once(self):
        ticks = iter(range(100))
        t = tracer.Tracer("run", clock=lambda: float(next(ticks)))
        inner = t.span("phase.peaks", lambda: "peaks")
        outer = t.span("phase.peaks", lambda: inner())
        band = t.span("empirics.cf_bandpass", lambda: None)
        root = t.span("workload", lambda: (outer(), band()))
        root()
        self.assertEqual([s[tracer.PARENT] for s in t.spans], [-1, 0, 1, 0])
        self.assertTrue(all(s[tracer.RUN] == "run" for s in t.spans))
        agg = tracer.by_name(t.spans)
        self.assertEqual(agg["phase.peaks"]["calls"], 1)
        # outer [1, 4] minus inner [2, 3], plus inner itself: the outer duration
        self.assertEqual(agg["phase.peaks"]["self_s"], 3.0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in workloads.PLANS:
                a = workloads.make_plan(name, 7, tmp / "a" / name)
                b = workloads.make_plan(name, 7, tmp / "b" / name)
                c = workloads.make_plan(name, 8, tmp / "c" / name)
                strip = json.dumps(a).replace(str(tmp / "a"), "")
                self.assertEqual(strip, json.dumps(b).replace(str(tmp / "b"), ""))
                self.assertNotEqual(strip, json.dumps(c).replace(str(tmp / "c"), ""))
                for path in sorted((tmp / "a" / name).iterdir()):
                    twin = tmp / "b" / name / path.name
                    self.assertEqual(path.read_bytes(), twin.read_bytes(), path.name)


class Benchmark(unittest.TestCase):
    def test_declared_metrics_match_reported(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.PLANS))


class RealIterations(unittest.TestCase):
    """Start real workload processes on the cheapest workload."""

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        cls.env = run.child_env()
        cls.reference = json.loads((run.REFERENCE / "scenario-grid.json").read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def _plan(self, tag):
        return workloads.make_plan("scenario-grid", workloads.REFERENCE_SEED, self.workdir / tag)

    def test_traced_run_starts_with_empty_band_pass_cache(self):
        plan = self._plan("traced")
        it = run.evaluate(plan, run.launch(plan, True, "traced", self.env),
                          reference=self.reference)
        self.assertEqual(it["problems"], [])
        self.assertEqual(it["checksum_notes"], [])
        self.assertEqual(it["cache"]["start"], [0, 0])
        self.assertGreater(it["cache"]["misses"], 0)
        self.assertGreater(it["layers"]["empirics.cf_weight.hit_ratio"], 0.9)

    def test_corrupted_output_is_a_failed_operation(self):
        plan = self._plan("corrupt")
        first = run.evaluate(plan, run.launch(plan, False, "first", self.env))
        self.assertEqual(first["problems"], [])

        def corrupted(edit):
            it = run.launch(plan, False, "again", self.env)
            path = Path(plan["outdir"]) / "scenario-results.csv"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(edit(lines)), encoding="utf-8")
            return it

        def nudge(lines):       # a plausible value, off by 0.01
            fields = lines[3].split(",")
            fields[4] = repr(float(fields[4]) + 0.01)
            return lines[:3] + [",".join(fields)] + lines[4:]

        it = run.evaluate(plan, corrupted(nudge), reference=self.reference)
        self.assertTrue(any("differ from the reference" in p for p in it["problems"]))
        it = run.evaluate(plan, corrupted(nudge), previous=first)
        self.assertTrue(any("byte-identical" in p for p in it["problems"]))
        it = run.evaluate(plan, run.launch(plan, False, "again", self.env),
                          previous=first)
        self.assertEqual(it["problems"], [])
        truncated = run.evaluate(plan, corrupted(lambda lines: lines[:-1]))
        self.assertTrue(any("rows, expected" in p for p in truncated["problems"]))
        # identical bytes are not checked again, but keep the failed verdict
        it = run.evaluate(plan, corrupted(lambda lines: lines[:-1]), previous=truncated)
        self.assertEqual(it["problems"], truncated["problems"])
        it = run.evaluate(plan, corrupted(lambda lines: [lines[0].upper()] + lines[1:]))
        self.assertTrue(any("header" in p for p in it["problems"]))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    unittest.main(verbosity=2)
