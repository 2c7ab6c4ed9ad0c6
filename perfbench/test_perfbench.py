#!/usr/bin/env python3
"""Tests of the rwdt benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds the benchmark, then runs (through
run.py) every workload at tiny size on the default seed, untraced and
traced, and checks that a perturbed reference (one aggregate count, one
response body, one result row) is reported as a failure.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["log_distinct", "log_dup", "serve_mixed", "exec_fragments"]
SEED = "1"


def bench(workload, trace, perturb=None):
    """Runs one tiny benchmark; returns (exit code, result object)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", trace, "--size", "tiny"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result.keys()),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual([m["name"] for m in declared],
                         list(result["metrics"].keys()))
        for m in declared:
            self.assertEqual(m["unit"], result["metrics"][m["name"]]["unit"])

    def test_result_line_from_benchmark_json(self):
        raw = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"setup_s": 0.5, "ingest.scan_s": 0.25}}
        traced = run.result_line(raw, self.spec, True)
        self.check_metrics(traced, self.spec["per_layer"])
        self.assertTrue(traced["correct"])
        self.assertEqual(traced["metrics"]["ingest.scan_s"]["value"], 0.25)
        self.assertEqual(traced["metrics"]["exec.plan_ms"]["value"], 0)
        # Untraced, every end-to-end metric must have been measured.
        untraced = run.result_line(raw, self.spec, False)
        self.assertFalse(untraced["correct"])
        self.assertEqual(untraced["failed"],
                         len(self.spec["end_to_end"]) - 1)
        raw["metrics"]["no.such_metric"] = 1
        self.assertFalse(run.result_line(raw, self.spec, True)["correct"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(WORKLOADS, [w["name"] for w in self.spec["workloads"]])

    def test_untraced_tiny_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, self.spec["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_tiny_runs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, "1")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, self.spec["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(metrics["error_rate"], 0)
                self.assertGreater(metrics["obs.trace_overhead_ratio"], 0)
                # A layer shows work only on the workloads that run it.
                exec_on = any(v != 0 for k, v in metrics.items()
                              if k.startswith("exec."))
                serve_on = any(v != 0 for k, v in metrics.items()
                               if k.startswith("serve."))
                engine_on = metrics["engine.feed_s"] > 0
                self.assertEqual(exec_on, w == "exec_fragments")
                self.assertEqual(serve_on, w == "serve_mixed")
                self.assertEqual(engine_on, w.startswith("log_"))
                path = os.path.join(".bench_build", "traces",
                                    "%s-seed%s.json" % (w, SEED))
                with open(path) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def test_perturbed_references_fail(self):
        cases = [("log_distinct", "0", "aggregate"),
                 ("log_dup", "1", "aggregate"),
                 ("serve_mixed", "0", "body"),
                 ("exec_fragments", "0", "row"),
                 ("exec_fragments", "1", "row")]
        for w, trace, perturb in cases:
            with self.subTest(workload=w, trace=trace, perturb=perturb):
                code, result = bench(w, trace, perturb)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
