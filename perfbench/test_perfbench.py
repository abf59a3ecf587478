#!/usr/bin/env python3
"""Self-checks of the repository benchmark.

Run from the root of a kmm checkout:

    python3 perfbench/test_perfbench.py

Builds the benchmark binary through run.py, then checks that
  * each referee counts a deliberately wrong answer in failed_frac
    (the binary's --self-check mode), and
  * every workload, untraced and traced, prints exactly the metric names
    and units BENCHMARK.json declares, with correct=true and failed=0.
The workload runs use a small --n so the whole suite takes seconds.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py sits beside this file)

SMALL_N = "4096"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(ROOT)
        cls.spec = load_spec()

    def run_binary(self, *args):
        return subprocess.run([self.binary, *args], capture_output=True, text=True,
                              timeout=170, check=False)

    def test_referees_count_wrong_answers(self):
        done = self.run_binary("--self-check")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("FAILED", done.stdout)
        for w in self.spec["workloads"]:
            self.assertIn("workload " + w["name"], done.stdout)

    def test_metric_names_match_spec(self):
        sections = {0: self.spec["end_to_end"], 1: self.spec["per_layer"]}
        for w in self.spec["workloads"]:
            for trace, declared in sections.items():
                with self.subTest(workload=w["name"], trace=trace):
                    done = self.run_binary("--workload", w["name"], "--seed", "3",
                                           "--seconds", "1", "--trace", str(trace),
                                           "--n", SMALL_N)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_bad_arguments_exit_nonzero(self):
        done = self.run_binary("--workload", "no-such-workload")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
