#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both modes, short runs.

Run from the root of a checkout:

    python3 perfbench/test_run.py

For each workload and --trace mode it runs perfbench/run.py --short and
asserts that every metric BENCHMARK.json names for the mode is printed with
its unit (in the report lines and in the JSON result), that no op failed,
and that a second seed passes the same output checks. It also checks that
the benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and perfbench/.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
WORKLOADS = ("eval-fluid", "eval-packet", "population", "routed")


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--short"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, seed, trace):
        result = run_bench(workload, seed, trace)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        lines = result.stdout.strip().split("\n")
        report = json.loads(lines[-1])
        self.assertEqual(set(report), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(report["correct"])
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(report["metrics"]),
                         sorted(m["name"] for m in expected))
        for m in expected:
            got = report["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            printed = [l for l in lines[:-1]
                       if l.split()[:2] == ["metric", m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0].split()[-1], m["unit"], m["name"])
        if not trace:
            self.assertEqual(report["metrics"]["ok_frac"]["value"], 1.0)
            self.assertIn("fail_frac 0)", result.stdout)
        self.assertTrue(any(l.startswith("output digest: ") for l in lines))
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))
        return lines

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, seed=3, trace=0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_run(workload, seed=3, trace=1)
                self.assertTrue(any(l.startswith("layer self time: ")
                                    for l in lines))

    def test_second_seed_passes_checks_and_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = self.check_run(workload, seed=4, trace=0)
                b = self.check_run(workload, seed=5, trace=0)
                digest = lambda lines: [l for l in lines
                                        if l.startswith("output digest")]
                self.assertNotEqual(digest(a), digest(b))

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            result = run_bench("eval-fluid", 1, 0, cwd=bare)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
