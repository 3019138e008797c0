#!/usr/bin/env python3
"""Fixture tests for the sdbp_lint contract checker.

Each fixture under fixtures/ seeds exactly one class of violation (or
none); the test runs the real CLI on a directory containing just that
fixture and asserts the reported rule ids and the exit code.  The
clean fixtures double as false-positive canaries.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "..", "run.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture file -> set of expected rule ids (empty = must be clean)
EXPECT = {
    "hot_virtual.cc": {"hot-virtual"},
    "hot_virtual_final.cc": set(),
    "hot_alloc.cc": {"hot-alloc"},
    "hot_new.cc": {"hot-alloc"},
    "hot_throw.cc": {"hot-throw"},
    "hot_lock.cc": {"hot-lock"},
    "hot_atomic.cc": {"hot-atomic-order"},
    "hot_io.cc": {"hot-io"},
    "hot_transitive.cc": {"hot-alloc"},
    "hot_span.cc": {"hot-span"},
    "hot_allow_inline.cc": set(),
    "det_wallclock.cc": {"det-wallclock"},
    "det_random.cc": {"det-random"},
    "det_getenv.cc": {"det-getenv"},
    "det_unordered.cc": {"det-unordered-iter"},
    "clean.cc": set(),
}

RULE_LINE = re.compile(r"^\S+:\d+: \[([\w-]+)\]")


def run_lint(src_dir, extra=()):
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--src", src_dir, *extra],
        capture_output=True, text=True)
    rules = {m[1] for m in
             (RULE_LINE.match(l) for l in proc.stdout.splitlines())
             if m}
    return proc, rules


class FixtureTests(unittest.TestCase):

    def run_fixture(self, name):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(FIXTURES, name), tmp)
            return run_lint(tmp)

    def test_fixture_inventory_matches_expectations(self):
        on_disk = {f for f in os.listdir(FIXTURES)
                   if f.endswith(".cc")}
        self.assertEqual(on_disk, set(EXPECT))

    def test_each_fixture_flags_exactly_its_rule(self):
        for name, want in EXPECT.items():
            with self.subTest(fixture=name):
                proc, rules = self.run_fixture(name)
                self.assertEqual(
                    rules, want,
                    f"{name}: reported {sorted(rules)}, expected "
                    f"{sorted(want)}\n--- stdout ---\n{proc.stdout}"
                    f"\n--- stderr ---\n{proc.stderr}")
                self.assertEqual(
                    proc.returncode, 1 if want else 0,
                    f"{name}: exit {proc.returncode} with "
                    f"violations={sorted(want)}")

    def test_transitive_violation_names_its_hot_root(self):
        proc, _ = self.run_fixture("hot_transitive.cc")
        self.assertIn("reached from Log::access", proc.stdout)
        self.assertIn("Log::slowPath", proc.stdout)

    def test_min_hot_guards_against_silent_scan_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(FIXTURES, "det_getenv.cc"), tmp)
            proc, _ = run_lint(tmp, extra=("--min-hot", "1"))
            self.assertEqual(proc.returncode, 1)
            self.assertIn("annotation scan", proc.stderr)

    def test_manifest_lists_hot_functions(self):
        import json
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(FIXTURES, "clean.cc"), tmp)
            manifest = os.path.join(tmp, "manifest.json")
            proc, _ = run_lint(tmp, extra=("--manifest", manifest))
            self.assertEqual(proc.returncode, 0, proc.stdout)
            with open(manifest) as f:
                doc = json.load(f)
            symbols = {e["symbol"] for e in doc["hot_functions"]}
            self.assertEqual(symbols, {"SetIndex::index",
                                       "SetIndex::findWay",
                                       "SetIndex::mix"})

    def test_baseline_suppresses_and_update_round_trips(self):
        import json
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(FIXTURES, "hot_alloc.cc"), tmp)
            baseline = os.path.join(tmp, "baseline.json")
            proc, _ = run_lint(
                tmp, extra=("--baseline", baseline,
                            "--update-baseline"))
            self.assertEqual(proc.returncode, 0, proc.stdout)
            with open(baseline) as f:
                entries = json.load(f)["entries"]
            self.assertEqual(len(entries), 1)
            self.assertEqual(entries[0]["rule"], "hot-alloc")
            # With the baseline in place the same tree is clean.
            proc, rules = run_lint(tmp,
                                   extra=("--baseline", baseline))
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertEqual(rules, set())

    def test_stale_baseline_entry_fails(self):
        import json
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(FIXTURES, "hot_alloc.cc"), tmp)
            baseline = os.path.join(tmp, "baseline.json")
            run_lint(tmp, extra=("--baseline", baseline,
                                 "--update-baseline"))
            # The baselined violation's code is gone: its entry now
            # covers nothing, and the lint must say so and fail.
            os.remove(os.path.join(tmp, "hot_alloc.cc"))
            shutil.copy(os.path.join(FIXTURES, "clean.cc"), tmp)
            proc, rules = run_lint(tmp,
                                   extra=("--baseline", baseline))
            self.assertEqual(rules, set())
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("stale baseline entry [hot-alloc]",
                          proc.stderr)
            with open(baseline) as f:
                self.assertEqual(len(json.load(f)["entries"]), 1)


if __name__ == "__main__":
    unittest.main()
