#!/usr/bin/env python3
"""Tests of tools/hotpath_audit.py's call parser and waiver accounting.

Each case feeds a synthetic disassembly, or synthetic violation lists,
through the audit's own functions, so no binary or objdump is needed.
"""

import os
import re
import sys
import unittest
from unittest import mock

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


# objdump -d -C output: a hot root that calls a templated vector
# method (whose demangled name starts with its sdbp:: return type)
# and tail-jumps into a templated sdbp:: method; both allocate.
DISASSEMBLY = """\
0000000000401000 <sdbp::Hot::record(sdbp::LlcRef const&)>:
  401000:\te8 fb 0f 00 00       \tcall   402000 <sdbp::LlcRef& \
std::vector<sdbp::LlcRef, std::allocator<sdbp::LlcRef> >::\
emplace_back<sdbp::LlcRef>(sdbp::LlcRef&&)>
  401005:\t75 02                \tjne    401009 \
<sdbp::Hot::record(sdbp::LlcRef const&)+0x9>
  401007:\teb f7                \tjmp    403000 \
<sdbp::Ring<sdbp::LlcRef>::push(sdbp::LlcRef const&)>
  401009:\tc3                   \tret

0000000000402000 <sdbp::LlcRef& std::vector<sdbp::LlcRef, \
std::allocator<sdbp::LlcRef> >::emplace_back<sdbp::LlcRef>\
(sdbp::LlcRef&&)>:
  402000:\te8 fb ef ff ff       \tcall   401f00 \
<operator new(unsigned long)@plt>
  402005:\tc3                   \tret

0000000000403000 <sdbp::Ring<sdbp::LlcRef>::push(sdbp::LlcRef const&)>:
  403000:\te8 fb ff ff ff       \tcall   401e00 <malloc@plt>
  403005:\tc3                   \tret
"""


class CallParserTests(unittest.TestCase):

    def test_templated_callees_are_walked_and_classified(self):
        with mock.patch.object(hotpath_audit, "run_process",
                               return_value=DISASSEMBLY):
            violations, stats, _ = hotpath_audit.audit_binary(
                "bin", [re.compile(r"sdbp::Hot::record\(")], [], [],
                [])
        self.assertEqual(stats["roots"], 1)
        self.assertEqual(stats["audited"], 3)
        found = sorted((v["symbol"].split("(")[0], v["callee"])
                       for v in violations)
        self.assertEqual(found, [
            ("sdbp::LlcRef& std::vector<sdbp::LlcRef, "
             "std::allocator<sdbp::LlcRef> >::emplace_back<sdbp::LlcRef>",
             "operator new(unsigned long)"),
            ("sdbp::Ring<sdbp::LlcRef>::push", "malloc"),
        ])
        self.assertTrue(all(v["class"] == "alloc" for v in violations))


if __name__ == "__main__":
    unittest.main()
