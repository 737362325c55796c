#!/usr/bin/env python3
"""Self-test of the benchmark, in its smoke mode (about a minute).

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed, with its unit, on
every workload run.py offers (BENCHMARK.json gates a subset of them), and
that the correctness gate fails a run in which expected verdicts are
flipped, in the warm-up and in the measured window.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import WORKLOADS  # noqa: E402


def run(workload, trace, *extra):
    """Runs one smoke run; returns (exit code, parsed last line, stdout)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result, done.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_gated_workloads_exist(self):
        for workload in self.spec["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)

    def check_metrics(self, trace, key):
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=trace):
                code, result, out = run(name, trace)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                mix = [l for l in out.splitlines() if l.startswith("mix {")]
                self.assertTrue(mix)
                self.assertTrue(json.loads(mix[-1][4:])["valid"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in self.spec[key]})
                for m in self.spec[key]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_printed(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_printed(self):
        self.check_metrics(1, "per_layer")

    def test_gate_fails_on_flipped_verdict(self):
        # One flip lands in the warm-up and one in the measured window:
        # both must count.
        code, result, out = run("check_hot", 0, "--flip-expect", "conflict")
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)


if __name__ == "__main__":
    unittest.main()
