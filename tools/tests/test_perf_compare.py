#!/usr/bin/env python3
"""Tests of tools/perf_compare.py's pairwise mode, the base-vs-PR gate.

Each case writes two google-benchmark --benchmark_out documents to a
temporary directory, runs the real CLI on them and checks its exit
code and verdict lines.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERF_COMPARE = os.path.join(HERE, "..", "perf_compare.py")


def iteration(name, cpu_time):
    return {"name": name, "run_type": "iteration",
            "cpu_time": cpu_time, "time_unit": "ns"}


def aggregate(name, kind, cpu_time):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "cpu_time": cpu_time, "time_unit": "ns"}


class PairwiseTests(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps({"benchmarks": content}))
        return path

    def compare(self, base, pr, *extra):
        return subprocess.run(
            [sys.executable, PERF_COMPARE,
             self.write("base.json", base), self.write("pr.json", pr),
             *extra],
            capture_output=True, text=True)

    def test_passes_at_the_limit(self):
        proc = self.compare([iteration("BM_X", 100.0)],
                            [iteration("BM_X", 110.0)],
                            "--max-regress", "10")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertTrue(proc.stdout.startswith("ok   BM_X:"),
                        proc.stdout)

    def test_fails_just_above_the_limit(self):
        proc = self.compare([iteration("BM_X", 100.0)],
                            [iteration("BM_X", 110.01)],
                            "--max-regress", "10")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertTrue(proc.stdout.startswith("FAIL BM_X:"),
                        proc.stdout)

    def test_median_aggregate_shadows_repetitions(self):
        # Raw repetitions and the mean regress 2x; the median, which
        # the gate reads, regresses 5%.
        base = [iteration("BM_X", 100.0), iteration("BM_X", 100.0),
                aggregate("BM_X", "mean", 100.0),
                aggregate("BM_X", "median", 100.0)]
        pr = [iteration("BM_X", 200.0), iteration("BM_X", 200.0),
              aggregate("BM_X", "mean", 200.0),
              aggregate("BM_X", "median", 105.0),
              aggregate("BM_X", "stddev", 50.0)]
        proc = self.compare(base, pr, "--max-regress", "10")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("100.00 -> 105.00", proc.stdout)
        self.assertEqual(len(proc.stdout.splitlines()), 1, proc.stdout)

    def test_benchmark_missing_on_one_side_fails(self):
        base = [iteration("BM_A", 100.0), iteration("BM_B", 100.0)]
        pr = [iteration("BM_A", 100.0)]
        proc = self.compare(base, pr, "--filter", "BM_B")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("FAIL BM_B: missing from PR results", proc.stdout)
        proc = self.compare(pr, base, "--filter", "BM_B")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("FAIL BM_B: missing from base results",
                      proc.stdout)

    def test_malformed_file_exits_with_one_line_error(self):
        proc = self.compare([iteration("BM_X", 100.0)],
                            '{"benchmarks": [')
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        lines = proc.stderr.splitlines()
        self.assertEqual(len(lines), 1, proc.stderr)
        self.assertRegex(lines[0], r"^error: .*pr\.json is not valid "
                                   r"JSON")


if __name__ == "__main__":
    unittest.main()
