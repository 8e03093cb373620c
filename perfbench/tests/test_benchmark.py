#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/tests/test_benchmark.py

- Every workload runs untraced at three seeds, one of which (9173) was
  never used while the benchmark was tuned; each run must report
  correct output and no failed cell.
- Each workload's traced run must report no failed cell either.
- The metric names a run prints and the names BENCHMARK.json declares
  must match in both directions: end-to-end names for --trace 0,
  per-layer names for --trace 1.
- The output checker's negative tests (perfbench_checks_test, built
  from perfbench/CMakeLists.txt) must pass.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
RUN = os.path.join("perfbench", "run.py")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SEEDS = (1, 7, 9173)
# Short runs: the tests check outputs and names, not timings. Every
# run still makes at least one full pass of its workload.
SECONDS = "1"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    """Run one benchmark invocation; return its result object."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %s trace %s exited %d:\n%s" % (
            workload, seed, trace, proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stderr"] = proc.stderr
    return result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = declared()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def check_result(self, result, names, label):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics", "stderr"})
        self.assertTrue(result["correct"], label + "\n" + result["stderr"][-4000:])
        self.assertEqual(result["failed"], 0, label)
        self.assertGreaterEqual(result["attempted"], 1, label)
        printed = set(result["metrics"])
        self.assertEqual(printed - names, set(), label + ": printed but not declared")
        self.assertEqual(names - printed, set(), label + ": declared but not printed")
        units = {m["name"]: m["unit"] for m in self.bench["end_to_end"] + self.bench["per_layer"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], label + ": unit of " + name)

    def test_untraced_runs_at_three_seeds(self):
        names = {m["name"] for m in self.bench["end_to_end"]}
        for workload in self.workloads:
            for seed in SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    result = run_bench(workload, seed, 0)
                    self.check_result(result, names, "%s seed %d" % (workload, seed))

    def test_traced_runs(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result = run_bench(workload, SEEDS[-1], 1)
                self.check_result(result, names, "%s traced" % workload)

    def test_checker_negative_cases(self):
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, capture_output=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_checks_test"],
                       check=True, capture_output=True)
        proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_checks_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])


if __name__ == "__main__":
    unittest.main()
