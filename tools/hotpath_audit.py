#!/usr/bin/env python3
"""Binary-level audit of the SDBP_HOT_PATH contract.

Usage:
    hotpath_audit.py --binary build/tools/sdbp_inspect \\
        [--binary build/bench/micro_ops] \\
        --manifest build/hotpath_manifest.json \\
        [--policy tools/hotpath_audit_policy.json] [--json out.json]

Disassembles each Release binary with objdump, finds the audited
symbols (the sealed BasicHierarchy/BasicCache compositions plus every
symbol matching the SDBP_HOT_PATH manifest emitted by
tools/sdbp_lint/run.py), and walks the direct-call closure through
sdbp:: code.  It fails if any audited symbol:

  * performs an indirect call (vtable dispatch the sealed engine was
    supposed to devirtualize, or a std::function),
  * calls an allocation routine (operator new, malloc, the libstdc++
    _M_allocate/_M_realloc/_M_rehash family),
  * raises (__cxa_throw / std::__throw_*),
  * takes a lock (pthread_mutex_*, __gthread, __cxa_guard), or
  * performs I/O (fwrite/printf/std::ostream).

Known cold-branch edges are waived individually in the policy file --
each waiver names a symbol pattern, violation class, callee pattern,
a maximum number of sites and a one-line reason, so a new `new` in a
hot function still fails even when an old one is waived.  A waiver
that covers no violation in any audited binary also fails the audit:
its edge is gone (or its symbol is excluded or never audited), and a
stale waiver would silently cover the next regression.  The policy
also carries a self-check: the type-erased virtual-path symbol must
contain at least one indirect call, proving the detector works.

Source-level lint (tools/sdbp_lint) and this audit are two halves of
one checker: the lint sees intent before inlining; this sees the
post-LTO machine code that actually runs.  Stdlib + binutils only.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import load_json, run_process  # noqa: E402

SYMBOL_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
# The callee runs to the last '>' on the line: a demangled template
# name (std::vector<sdbp::LlcRef, ...>::emplace_back<...>) holds '>'s.
CALL_RE = re.compile(r"\b(?:call|callq)\s+[0-9a-f]+\s+<(.+)>\s*$")
INDIRECT_CALL_RE = re.compile(r"\b(?:call|callq)\s+\*")
# Indirect tail-jump through a base register (vtable thunk shape).
# Jump tables use the indexed form `jmp *0x...(,%reg,8)` and are not
# dispatch, so a bare base register is required.
INDIRECT_JMP_RE = re.compile(r"\bjmp[a-z]*\s+\*(?:0x[0-9a-f]+)?"
                             r"\(%r[a-z0-9]+\)")
TAIL_JMP_RE = re.compile(r"\bjmp[a-z]*\s+[0-9a-f]+\s+<(.+)>\s*$")

CLASSES = {
    "alloc": re.compile(
        r"operator new|operator delete|\bmalloc\b|\bcalloc\b|"
        r"\brealloc\b|\bfree\b|_M_allocate|_M_realloc|_M_rehash|"
        r"_M_insert|_M_emplace|_M_create_node|_M_default_append|"
        r"_M_assign|push_back|emplace_back|::reserve\(|::resize\("),
    "throw": re.compile(
        r"__cxa_throw|__cxa_allocate_exception|__cxa_rethrow|"
        r"__throw_|::__throw|_ZSt[0-9]+__throw"),
    "mutex": re.compile(
        r"pthread_mutex|pthread_rwlock|pthread_cond|__gthread|"
        r"__cxa_guard|std::mutex|std::unique_lock|std::lock_guard|"
        r"std::condition_variable"),
    "io": re.compile(
        r"\bfwrite\b|\bfputs\b|\bfputc\b|\bprintf\b|\bfprintf\b|"
        r"\bputs\b|\bfopen\b|\bfflush\b|basic_ostream|basic_ofstream|"
        r"basic_filebuf|\bwrite\b.*\bunistd\b"),
}


def clean_symbol(sym):
    """Strip clone suffixes and @plt decoration."""
    sym = re.sub(r"@plt$", "", sym)
    sym = re.sub(r"\s*\[clone[^\]]*\]$", "", sym)
    return sym


def parse_disassembly(text):
    """Map demangled symbol -> list of instruction lines."""
    blocks = {}
    current = None
    for line in text.splitlines():
        m = SYMBOL_RE.match(line)
        if m:
            current = clean_symbol(m[1])
            blocks.setdefault(current, [])
        elif current is not None and line.strip():
            blocks[current].append(line)
    return blocks


def manifest_patterns(manifest):
    """Compile symbol regexes from the lint's hot-function manifest.

    A manifest entry {class: "BasicCache", name: "access"} matches any
    template instantiation sdbp::BasicCache<...>::access(...), and a
    free function {class: "", name: "mix64"} matches sdbp::mix64(...).
    """
    pats = []
    for e in manifest.get("hot_functions", []):
        cls, name = e.get("class", ""), e["name"]
        if cls:
            pats.append(re.compile(
                rf"sdbp::(?:\w+::)*{re.escape(cls)}(?:<.*>)?::"
                rf"{re.escape(name)}\("))
        else:
            pats.append(re.compile(
                rf"sdbp::(?:\w+::)*{re.escape(name)}\("))
    return pats


def find_roots(blocks, root_res, manifest_pats, exclude_res):
    roots = set()
    for sym in blocks:
        if any(x.search(sym) for x in exclude_res):
            continue
        if any(r.search(sym) for r in root_res) or \
                any(p.search(sym) for p in manifest_pats):
            roots.add(sym)
    return roots


def call_edges(lines):
    """Yield ("direct", callee) / ("indirect", instruction) edges."""
    for line in lines:
        m = CALL_RE.search(line)
        if m:
            yield "direct", clean_symbol(m[1])
            continue
        if INDIRECT_CALL_RE.search(line) or \
                INDIRECT_JMP_RE.search(line):
            yield "indirect", line.strip()
            continue
        m = TAIL_JMP_RE.search(line)
        if m:
            callee = clean_symbol(m[1])
            # A tail jump to another function is a call for audit
            # purposes; local branches carry a +0x offset.
            if "+0x" not in m[1]:
                yield "direct", callee


def classify(callee):
    for cls, rx in CLASSES.items():
        if rx.search(callee):
            return cls
    return None


def audit_binary(path, root_res, manifest_pats, exclude_res,
                 waivers):
    """Return (violations, stats, per-waiver match counts) for one
    binary."""
    text = run_process(["objdump", "-d", "-C", path])
    blocks = parse_disassembly(text)
    roots = find_roots(blocks, root_res, manifest_pats, exclude_res)
    if not roots:
        return [{"binary": path, "symbol": "", "class": "audit",
                 "callee": "", "detail": "no audited symbols found "
                 "(roots/manifest match nothing)"}], {}, \
            [0] * len(waivers)

    audited, worklist = set(), sorted(roots)
    violations = []
    while worklist:
        sym = worklist.pop()
        if sym in audited:
            continue
        audited.add(sym)
        for kind, target in call_edges(blocks.get(sym, [])):
            if kind == "indirect":
                violations.append({
                    "binary": path, "symbol": sym,
                    "class": "indirect", "callee": target,
                    "detail": "indirect call/jump (virtual dispatch "
                              "or std::function)"})
                continue
            if target.startswith("sdbp::") and target in blocks:
                if target not in audited and \
                        not any(x.search(target)
                                for x in exclude_res):
                    worklist.append(target)
                continue
            cls = classify(target)
            if cls:
                violations.append({
                    "binary": path, "symbol": sym, "class": cls,
                    "callee": target,
                    "detail": f"{cls} call from audited symbol"})

    violations, matched = apply_waivers(violations, waivers)
    stats = {"binary": path, "roots": len(roots),
             "audited": len(audited)}
    return violations, stats, matched


def apply_waivers(violations, waivers):
    """Drop violations covered by a policy waiver; enforce max_sites.

    Returns (remaining violations, per-waiver count of the violations
    each waiver matched, including those past its max_sites)."""
    remaining = []
    counts = [0] * len(waivers)
    for v in violations:
        for i, w in enumerate(waivers):
            if w["class"] != v["class"] and w["class"] != "*":
                continue
            if not re.search(w["symbol"], v["symbol"]):
                continue
            if not re.search(w.get("callee", ""), v["callee"] or ""):
                continue
            counts[i] += 1
            if counts[i] <= w.get("max_sites", 1):
                v["waived_by"] = w["reason"]
                break
        if "waived_by" not in v:
            remaining.append(v)
    return remaining, counts


def unused_waivers(waivers, matched):
    """One audit failure per waiver that matched no violation in any
    audited binary (@p matched: per-waiver totals)."""
    return [{"binary": "*", "symbol": w["symbol"], "class": "audit",
             "callee": "",
             "detail": f"unused waiver ({w['class']}): it matched no "
                       f"violation in any audited binary; delete it "
                       f"-- {w['reason']}"}
            for w, n in zip(waivers, matched) if n == 0]


def self_check(binaries, policy):
    """The virtual-path symbol must show indirect calls -- otherwise
    the detector itself is broken and a green audit means nothing."""
    check = policy.get("self_check")
    if not check:
        return []
    rx = re.compile(check["symbol"])
    found = 0
    for path in binaries:
        text = run_process(["objdump", "-d", "-C", path])
        for sym, lines in parse_disassembly(text).items():
            if rx.search(sym):
                found += sum(1 for k, _t in call_edges(lines)
                             if k == "indirect")
    if found < check.get("min_indirect", 1):
        return [{"binary": "*", "symbol": check["symbol"],
                 "class": "audit", "callee": "",
                 "detail": f"self-check failed: expected >= "
                           f"{check.get('min_indirect', 1)} indirect "
                           f"calls in the virtual-path symbol, found "
                           f"{found} -- the indirect-call detector "
                           f"is not seeing dispatch"}]
    return []


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--binary", action="append", required=True,
                    help="Release binary to audit (repeatable)")
    ap.add_argument("--manifest", required=True,
                    help="hot-function manifest from sdbp_lint "
                         "(run.py --manifest)")
    ap.add_argument("--policy",
                    default=os.path.join(
                        os.path.dirname(os.path.abspath(__file__)),
                        "hotpath_audit_policy.json"),
                    help="audit policy JSON (roots, waivers, "
                         "self-check)")
    ap.add_argument("--json", help="write the full report here")
    args = ap.parse_args(argv)

    policy = load_json(args.policy)
    manifest = load_json(args.manifest)
    root_res = [re.compile(p) for p in policy.get("root_patterns", [])]
    manifest_pats = manifest_patterns(manifest)
    exclude_res = [re.compile(p)
                   for p in policy.get("exclude_patterns", [])]
    waivers = policy.get("waivers", [])

    all_violations, all_stats = [], []
    matched = [0] * len(waivers)
    for path in args.binary:
        if not os.path.exists(path):
            sys.exit(f"error: binary not found: {path}")
        v, s, m = audit_binary(path, root_res, manifest_pats,
                               exclude_res, waivers)
        all_violations.extend(v)
        all_stats.append(s)
        matched = [a + b for a, b in zip(matched, m)]

    all_violations.extend(unused_waivers(waivers, matched))
    all_violations.extend(self_check(args.binary, policy))

    for v in all_violations:
        print(f"FAIL [{v['class']}] {v['symbol'] or v['binary']}\n"
              f"     -> {v['callee'] or v['detail']}")
        if v["callee"]:
            print(f"     {v['detail']}")

    for s in all_stats:
        print(f"audit: {s.get('binary')}: {s.get('roots', 0)} root "
              f"symbols, {s.get('audited', 0)} audited via direct-"
              f"call closure")

    if args.json:
        with open(args.json, "w") as out:
            json.dump({"violations": all_violations,
                       "stats": all_stats}, out, indent=1)
            out.write("\n")

    if all_violations:
        print(f"hotpath-audit: {len(all_violations)} violation(s)")
        return 1
    print("hotpath-audit: clean -- every audited symbol is flat "
          "(no indirect dispatch, allocation, throw, lock or I/O)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
