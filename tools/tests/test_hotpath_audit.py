#!/usr/bin/env python3
"""Tests of tools/hotpath_audit.py's waiver accounting.

Each case feeds synthetic violation lists through the audit's own
apply_waivers / unused_waivers, so no binary or objdump is needed.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))

import hotpath_audit  # noqa: E402


def violation(symbol, cls, callee=""):
    return {"binary": "bin", "symbol": symbol, "class": cls,
            "callee": callee, "detail": f"{cls} call"}


def waiver(symbol, cls, callee="", max_sites=1):
    return {"symbol": symbol, "class": cls, "callee": callee,
            "max_sites": max_sites, "reason": f"{symbol} is cold"}


def audit(violation_lists, waivers):
    """Run the waiver stage over one violation list per binary, as
    main() does; return the failures left."""
    failures, matched = [], [0] * len(waivers)
    for violations in violation_lists:
        remaining, counts = hotpath_audit.apply_waivers(
            violations, waivers)
        failures.extend(remaining)
        matched = [a + b for a, b in zip(matched, counts)]
    return failures + hotpath_audit.unused_waivers(waivers, matched)


class WaiverTests(unittest.TestCase):

    def test_used_waiver_passes(self):
        waivers = [waiver("Cold::grow", "alloc", "operator new")]
        failures = audit(
            [[violation("sdbp::Cold::grow()", "alloc", "operator new")]],
            waivers)
        self.assertEqual(failures, [])

    def test_unused_waiver_fails(self):
        waivers = [waiver("Cold::grow", "alloc"),
                   waiver("Gone::edge", "io")]
        failures = audit(
            [[violation("sdbp::Cold::grow()", "alloc", "malloc")]],
            waivers)
        self.assertEqual(len(failures), 1, failures)
        self.assertEqual(failures[0]["class"], "audit")
        self.assertEqual(failures[0]["symbol"], "Gone::edge")
        self.assertIn("unused waiver", failures[0]["detail"])

    def test_waiver_used_in_one_binary_of_two_passes(self):
        waivers = [waiver("Cold::grow", "alloc")]
        failures = audit(
            [[], [violation("sdbp::Cold::grow()", "alloc", "malloc")]],
            waivers)
        self.assertEqual(failures, [])

    def test_class_mismatch_leaves_waiver_unused(self):
        waivers = [waiver("Cold::grow", "throw")]
        failures = audit(
            [[violation("sdbp::Cold::grow()", "alloc", "malloc")]],
            waivers)
        self.assertEqual(sorted(f["class"] for f in failures),
                         ["alloc", "audit"])

    def test_max_sites_is_enforced(self):
        waivers = [waiver("Cold::grow", "alloc", max_sites=2)]
        sites = [violation("sdbp::Cold::grow()", "alloc", "malloc")
                 for _ in range(3)]
        failures = audit([sites], waivers)
        self.assertEqual(len(failures), 1, failures)
        self.assertEqual(failures[0]["class"], "alloc")
        self.assertNotIn("waived_by", failures[0])

    def test_max_sites_counts_per_binary(self):
        waivers = [waiver("Cold::grow", "alloc", max_sites=1)]
        site = violation("sdbp::Cold::grow()", "alloc", "malloc")
        failures = audit([[dict(site)], [dict(site)]], waivers)
        self.assertEqual(failures, [])


if __name__ == "__main__":
    unittest.main()
