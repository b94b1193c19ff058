#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/tests/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny scale for a short window,
once untraced and once traced, and asserts that:
  - the run exits 0 and its last stdout line is the result object with
    exactly the keys correct/attempted/failed/metrics;
  - the correctness checks passed (correct, no failed operation);
  - every end-to-end metric (untraced) or per-layer metric (traced) is
    printed by name with the unit BENCHMARK.json declares, and nothing else;
  - every traced run carries the advise -> migrate -> replay loop.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# Tiny data for the served database. The advise loop keeps its own scale:
# its recorded advisor DDL is the expectation at that scale.
SCALE = "0.01"
# Measured by the advise loop that every traced run carries.
LOOP_LAYERS = ["advise_s", "migrate_s", "replay_s",
               "core.advisor_phase_ms.total", "online.migration_steps",
               "executor.self_ms.join_build"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    bench = load_benchmark()

    def run_workload(self, workload, trace):
        cmd = self.bench["command"] + ["--workload", workload, "--seed", "3",
                                       "--seconds", "2", "--trace",
                                       str(trace), "--scale", SCALE]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        last = done.stdout.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0, done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def check_metrics(self, metrics, declared):
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_benchmark_workloads(self):
        for workload in [w["name"] for w in self.bench["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                metrics = self.run_workload(workload, 0)
                self.check_metrics(metrics, self.bench["end_to_end"])
                for m in self.bench["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=workload, trace=1):
                metrics = self.run_workload(workload, 1)
                self.check_metrics(metrics, self.bench["per_layer"])
                for name in LOOP_LAYERS:
                    self.assertGreater(metrics[name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
