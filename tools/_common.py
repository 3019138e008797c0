"""Shared helpers for the stdlib-only tools in this directory.

Everything in tools/ runs in CI where installing packages is
off-limits, so this module sticks to the standard library: JSON
loading with a uniform error message, google-benchmark parsing for
perf_compare.py, and a subprocess wrapper used by the binary audit.
"""

import json
import subprocess
import sys


def load_json(path):
    """Load a JSON document, exiting with a one-line error on failure.

    Tools that take result files as arguments all want the same
    behaviour: a missing or malformed file is a usage error, not a
    traceback.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")


def load_benchmarks(path):
    """Map benchmark name -> entry, preferring the median aggregate.

    Reads the ``benchmarks`` array of a google-benchmark
    --benchmark_out file.  With --benchmark_repetitions the file holds
    one row per repetition (all sharing the plain name) plus
    mean/median/stddev aggregates; the median is the noise-robust
    choice, so ``NAME_median`` shadows the raw ``NAME`` rows when
    present.
    """
    doc = load_json(path)
    out = {}
    for entry in doc.get("benchmarks", []):
        name = entry["name"]
        if entry.get("run_type", "iteration") == "aggregate":
            if entry.get("aggregate_name") != "median":
                continue
            name = entry.get("run_name", name.removesuffix("_median"))
        elif name in out:
            continue
        out[name] = entry
    return out


def run_process(cmd, **kwargs):
    """Run a command, returning its stdout as text.

    Exits with a one-line error if the command is missing or fails --
    the binary-audit tools treat an unrunnable nm/objdump as a usage
    error, not a Python traceback.
    """
    try:
        proc = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, **kwargs)
    except FileNotFoundError:
        sys.exit(f"error: required tool not found: {cmd[0]}")
    except subprocess.CalledProcessError as e:
        detail = (e.stderr or "").strip().splitlines()
        tail = f": {detail[-1]}" if detail else ""
        sys.exit(f"error: {' '.join(cmd)} failed "
                 f"(exit {e.returncode}){tail}")
    return proc.stdout
