#!/usr/bin/env python3
"""Self-tests of the benchmark: input determinism, accuracy determinism, and
the shape of the result line for every workload in both modes.

    python3 perfbench/test_perfbench.py

Each test goes through perfbench/run.py, so the first one builds the benchmark.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT)


def result(*args):
    proc = run(*args)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class InputsTest(unittest.TestCase):
    def digest(self, seed):
        proc = run("--inputs-digest", "--seed", str(seed))
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return proc.stdout.strip().splitlines()[-1]

    def test_same_seed_gives_identical_inputs(self):
        self.assertEqual(self.digest(7), self.digest(7))

    def test_other_seed_gives_other_population(self):
        self.assertNotEqual(self.digest(7), self.digest(8))


class ResultTest(unittest.TestCase):
    def check(self, res, expected):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in expected])
        for metric in expected:
            self.assertRegex(metric["name"], NAME)
            printed = res["metrics"][metric["name"]]
            self.assertEqual(set(printed), {"value", "unit"})
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check(result("--workload", workload["name"], "--seed", "3",
                                      "--seconds", "2", "--trace", trace), SPEC[key])

    def test_accuracy_is_identical_for_one_seed(self):
        args = ("--workload", "clinic_backlog", "--seed", "5", "--seconds", "2",
                "--trace", "0")
        first, second = result(*args), result(*args)
        self.assertEqual(first["metrics"]["accuracy"]["value"],
                         second["metrics"]["accuracy"]["value"])

    def test_unknown_workload_exits_nonzero(self):
        proc = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
