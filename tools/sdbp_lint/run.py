#!/usr/bin/env python3
"""sdbp-lint: source-level hot-path and determinism contract checker.

Usage:
    run.py --src src [--baseline tools/sdbp_lint/baseline.json]
           [--manifest out.json] [--update-baseline] [--min-hot N]

Walks the call graph from every SDBP_HOT_PATH-annotated function and
reports fast-path contract violations (hot-* rules), then sweeps every
function in --src for determinism-hygiene violations (det-* rules).
Violations can be suppressed inline with ``// sdbp-lint: allow(rule)``
or collectively in the baseline file, which pairs every suppression
with a one-line justification.

Exit status: 0 clean (modulo baseline), 1 violations, a stale
baseline entry (one that matches no violation: its code is gone, and
it would silently cover the next regression) or a stale scan, 2 usage
error.  Stdlib-only; no libclang required.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cpp_model import parse_file                       # noqa: E402
from rules import (ALL_RULES, Violation, det_violations,  # noqa: E402
                   hot_violations,
                   unordered_iteration_violations)


class DevirtOracle:
    """Project-wide answer to "can a virtual call to `name` be
    devirtualized?"  A name is devirtualizable when some final class
    provides it (the sealed compositions instantiate those classes
    directly) or when some override is itself marked final.  Calls to
    such names are allowed at source level; the binary audit proves
    the sealed symbols really compile flat."""

    def __init__(self, files):
        self.virtuals = set()
        self.final_names = set()
        for sf in files:
            for ci in sf.classes:
                self.virtuals |= ci.virtual_methods
                self.final_names |= ci.final_methods
                if ci.final:
                    self.final_names |= (ci.virtual_methods |
                                         ci.override_methods)

    def is_virtual(self, name):
        return name in self.virtuals

    def is_final_somewhere(self, name):
        return name in self.final_names


def collect_sources(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".hh", ".cc", ".h", ".cpp", ".hpp")):
                out.append(os.path.join(dirpath, fn))
    return out


def build_call_graph(functions):
    """name -> [functions with bodies]; resolution is by unqualified
    name, preferring a same-class match."""
    by_name = {}
    for f in functions:
        if f.body:
            by_name.setdefault(f.name, []).append(f)
    return by_name


def resolve(call_name, caller, by_name):
    cands = by_name.get(call_name, [])
    same = [f for f in cands if f.cls == caller.cls]
    return same or cands


def hot_reachable(roots, by_name):
    """Map each function (id) to one hot root symbol that reaches it."""
    from cpp_model import extract_calls
    reached = {}
    for root in roots:
        stack = [root]
        seen = set()
        while stack:
            f = stack.pop()
            if id(f) in seen:
                continue
            seen.add(id(f))
            reached.setdefault(id(f), (f, root.symbol))
            for name, _m, _a, _o in extract_calls(f.body):
                for callee in resolve(name, f, by_name):
                    if id(callee) not in seen:
                        stack.append(callee)
    return reached


def load_baseline(path):
    if not path or not os.path.exists(path):
        return []
    with open(path) as f:
        doc = json.load(f)
    return doc.get("entries", [])


def baseline_key(entry):
    return (entry["rule"], entry["file"], entry.get("symbol", ""),
            entry.get("message", ""))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src",
                    help="source tree to lint (e.g. src)")
    ap.add_argument("--baseline",
                    help="baseline JSON of accepted violations")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current "
                         "violations, keeping existing justifications")
    ap.add_argument("--manifest",
                    help="write the SDBP_HOT_PATH symbol manifest "
                         "(JSON) consumed by tools/hotpath_audit.py")
    ap.add_argument("--min-hot", type=int, default=0,
                    help="fail unless at least N hot functions were "
                         "found (guards against a silent scan "
                         "failure; CI uses 80)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule ids and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, desc in sorted(ALL_RULES.items()):
            print(f"{rid:18s} {desc}")
        return 0

    if not args.src:
        ap.error("--src is required (unless --list-rules)")
    if not os.path.isdir(args.src):
        ap.error(f"--src {args.src} is not a directory")

    # Report paths relative to the source tree's parent ("src/...")
    # so baseline keys are stable no matter where the lint runs from.
    src_abs = os.path.abspath(args.src)
    rel_root = os.path.dirname(src_abs)

    files = []
    for p in collect_sources(src_abs):
        sf = parse_file(p)
        sf.path = os.path.relpath(p, rel_root)
        for f in sf.functions:
            f.file = sf.path
        files.append(sf)
    devirt = DevirtOracle(files)
    functions = [f for sf in files for f in sf.functions]
    by_name = build_call_graph(functions)

    # Hot surface: annotation on either the in-class declaration or
    # the out-of-line definition marks the (class, name) pair hot.
    hot_keys = {(f.cls, f.name) for f in functions if f.hot}
    roots = [f for f in functions
             if f.body and (f.cls, f.name) in hot_keys]
    hot_decl_only = [f for f in functions
                     if f.hot and not f.body and
                     not any(g.body and (g.cls, g.name) ==
                             (f.cls, f.name) for g in functions)]

    if args.manifest:
        entries = sorted({(f.cls, f.name): {
            "symbol": f.symbol, "class": f.cls, "name": f.name,
            "file": f.file, "line": f.line,
        } for f in functions if (f.cls, f.name) in hot_keys
        }.values(), key=lambda e: e["symbol"])
        with open(args.manifest, "w") as out:
            json.dump({"hot_functions": entries}, out, indent=1)
            out.write("\n")
        print(f"manifest: {len(entries)} hot functions -> "
              f"{args.manifest}")

    n_hot = len({(f.cls, f.name) for f in roots + hot_decl_only})
    if n_hot < args.min_hot:
        print(f"error: found only {n_hot} SDBP_HOT_PATH functions "
              f"(expected >= {args.min_hot}); the annotation scan "
              f"looks broken", file=sys.stderr)
        return 1

    # Hot pack over the reachable closure.
    violations = []
    reached = hot_reachable(roots, by_name)
    for f, root_sym in reached.values():
        for v in hot_violations(f, devirt):
            v.root = root_sym
            violations.append(v)

    # Determinism pack over everything.
    env_impl = os.path.join("util", "env.cc")
    for sf in files:
        sanctioned = sf.path.endswith(env_impl)
        for f in sf.functions:
            if f.body:
                violations.extend(
                    det_violations(f, sanctioned_getenv=sanctioned))
        violations.extend(unordered_iteration_violations(sf))

    # Inline allows.
    allows_by_file = {sf.path: sf.allows for sf in files}
    def allowed(v):
        rules = allows_by_file.get(v.file, {}).get(v.line, set())
        return v.rule in rules or "*" in rules
    violations = [v for v in violations if not allowed(v)]
    violations.sort(key=lambda v: (v.file, v.line, v.rule))

    # Baseline.
    baseline = load_baseline(args.baseline)
    known = {baseline_key(e): e for e in baseline}
    fresh, matched = [], set()
    for v in violations:
        k = v.key()
        if k in known:
            matched.add(k)
        else:
            fresh.append(v)

    if args.update_baseline:
        entries = []
        seen = set()
        for v in violations:
            k = v.key()
            if k in seen:
                continue
            seen.add(k)
            entries.append({
                "rule": v.rule, "file": v.file, "symbol": v.symbol,
                "message": v.message,
                "reason": known.get(k, {}).get(
                    "reason", "TODO: justify this suppression"),
            })
        with open(args.baseline, "w") as out:
            json.dump({"entries": entries}, out, indent=1)
            out.write("\n")
        print(f"baseline: wrote {len(entries)} entries to "
              f"{args.baseline}")
        return 0

    stale = [e for e in baseline if baseline_key(e) not in matched]
    for e in stale:
        print(f"error: stale baseline entry "
              f"[{e['rule']}] {e['file']} {e.get('symbol', '')}: it "
              f"matches no violation; delete it", file=sys.stderr)

    for v in fresh:
        via = f"  (reached from {v.root})" if v.root and \
            v.root != v.symbol else ""
        sym = f" in {v.symbol}" if v.symbol else ""
        print(f"{v.file}:{v.line}: [{v.rule}]{sym}: {v.message}{via}")

    n_base = len(violations) - len(fresh)
    print(f"sdbp-lint: {len(files)} files, {n_hot} hot functions, "
          f"{len(reached)} reachable from hot roots; "
          f"{len(fresh)} violations ({n_base} baselined, "
          f"{len(stale)} stale)")
    return 1 if fresh or stale else 0


if __name__ == "__main__":
    sys.exit(main())
