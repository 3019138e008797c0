#!/usr/bin/env python3
"""Compare two benchmark result files and gate on regressions.

    perf_compare.py BASE.json PR.json [--filter NAME ...]
                    [--max-regress PCT]

Reads the ``benchmarks`` array of each file (google-benchmark's
--benchmark_out / BENCH_micro_ops.json format), matches entries by
name, and fails (exit 1) if any selected benchmark's cpu_time grew by
more than --max-regress percent from BASE to PR.  With no --filter,
every benchmark present in both files is checked.

Stdlib only -- this runs in CI where installing packages is off-limits.
"""

import argparse
import sys

from _common import load_benchmarks


def compare_pair(args):
    base = load_benchmarks(args.base)
    pr = load_benchmarks(args.pr)

    names = args.filter or sorted(set(base) & set(pr))
    failed = False
    for name in names:
        if name not in base or name not in pr:
            print(f"FAIL {name}: missing from "
                  f"{'base' if name not in base else 'PR'} results")
            failed = True
            continue
        b, p = base[name]["cpu_time"], pr[name]["cpu_time"]
        unit = base[name].get("time_unit", "ns")
        delta = (p - b) / b * 100.0 if b else 0.0
        status = "FAIL" if delta > args.max_regress else "ok"
        print(f"{status:4s} {name}: {b:.2f} -> {p:.2f} {unit}/op "
              f"({delta:+.1f}%, limit +{args.max_regress:.0f}%)")
        if delta > args.max_regress:
            failed = True

    if not names:
        print("FAIL: no benchmarks in common between the two files")
        failed = True
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("base", metavar="BASE.json")
    ap.add_argument("pr", metavar="PR.json")
    ap.add_argument("--filter", action="append", default=[],
                    help="benchmark name to check (repeatable); "
                         "default: all common benchmarks")
    ap.add_argument("--max-regress", type=float, default=10.0,
                    help="max allowed increase in percent "
                         "(default: 10)")
    return compare_pair(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
