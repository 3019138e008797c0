#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload panel --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/cmake: perfbench (a Release build of
src/ plus the benchmark program) and perfbench_check (the same with
DCHECKs compiled in).  Run-time files (sweep manifest, spans) go to
.bench_build/out.  Build output goes to stderr.  A traced run also
audits the invariants of its DBRB cells with perfbench_check and adds
those cells to "attempted" and "failed"; --self-test runs
perfbench_check.  On success the last stdout line is the benchmark's
JSON result; on any failure the script exits non-zero without printing
one.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
OUT_DIR = os.path.join(".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CHECK_BINARY = os.path.join(BUILD_DIR, "perfbench_check")
# Every run must end within 180 s.
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    def attempt():
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, check=True)

    try:
        attempt()
    except (subprocess.CalledProcessError, OSError):
        if not os.path.isdir(BUILD_DIR):
            raise
        # A cache left by another source tree cannot be reused.
        log("build failed; retrying in a clean build directory")
        shutil.rmtree(BUILD_DIR)
        attempt()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["panel", "mix4", "sweep"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    start = time.monotonic()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    # A first (building) run may take longer; the runs keep 150 s.
    deadline = max(start + RUN_TIMEOUT_S, time.monotonic() + 150)

    if args.self_test:
        proc = run_binary([CHECK_BINARY, "--self-test"], deadline)
        if proc is None:
            return 3
        sys.stdout.write(proc.stdout)
        return proc.returncode

    proc = run_binary([BINARY, "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out-dir", OUT_DIR],
                      deadline)
    result = parse_result(proc)
    if result is None:
        return 1
    out = proc.stdout.rstrip("\n").split("\n")[:-1]
    if args.trace:
        audit = run_binary([CHECK_BINARY, "--audit",
                            "--workload", args.workload,
                            "--seed", str(args.seed), "--out-dir", OUT_DIR],
                           deadline)
        checked = parse_result(audit)
        if checked is None:
            return 1
        out += audit.stdout.rstrip("\n").split("\n")[:-1]
        result["attempted"] += checked["attempted"]
        result["failed"] += checked["failed"]
        result["correct"] = result["correct"] and checked["correct"]
    sys.stdout.write("\n".join(out + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    return 0


def run_binary(cmd, deadline):
    """Run @cmd with its stdout captured; None when it runs past the
    deadline (it is killed and waited for)."""
    # The simulator reads SDBP_* variables (budgets, jobs, spans, fault
    # rates); the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SDBP_")}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("%s ran past its deadline" % cmd[0])
        return None


def parse_result(proc):
    """The result JSON on the last stdout line of a finished run, or
    None (after logging why) when the run failed."""
    if proc is None:
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        log("%s failed (exit %d)" % (proc.args[0], proc.returncode))
        return None
    return result


if __name__ == "__main__":
    sys.exit(main())
