"""The two rule packs of the contract checker.

Hot pack (``hot-*``) -- evaluated on every function reachable from an
SDBP_HOT_PATH root through the intra-repo call graph.  These encode
the fast-path contract documented in src/util/hotpath.hh: no
non-devirtualizable virtual dispatch, no heap allocation, no throw,
no locks or non-relaxed atomics, no I/O.

Determinism pack (``det-*``) -- evaluated on every function in src/.
These encode the reproducibility hygiene rules: no wall-clock reads,
no unseeded randomness, no raw getenv outside the env:: wrappers, and
no output produced by iterating an unordered container.

Each violation is a Violation record; run.py matches them against the
checked-in baseline and inline ``// sdbp-lint: allow(rule)`` pragmas.
"""

import re
from dataclasses import dataclass

from cpp_model import extract_calls


@dataclass
class Violation:
    rule: str
    file: str
    line: int
    symbol: str     # qualified function name ("" for file scope)
    message: str
    root: str = ""  # hot root that reaches this site ("" for det-*)

    def key(self):
        """Baseline identity: stable across line-number churn."""
        return (self.rule, self.file, self.symbol, self.message)


# --- hot pack -------------------------------------------------------

_ALLOC_CALLS = frozenset({
    "malloc", "calloc", "realloc", "free", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "allocate_shared",
})
_ALLOC_MEMBERS = frozenset({
    "push_back", "emplace_back", "emplace", "emplace_hint", "insert",
    "resize", "reserve", "append", "assign",
})
_LOCK_RE = re.compile(
    r"\b(?:std::)?(?:mutex|shared_mutex|recursive_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b|"
    r"\bpthread_(?:mutex|rwlock|cond)_\w+|\bstd::lock\b")
_ATOMIC_ORDER_RE = re.compile(
    r"\bmemory_order(?:::|_)(?:seq_cst|acquire|release|acq_rel)\b")
_ATOMIC_RMW = frozenset({
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "exchange", "compare_exchange_weak", "compare_exchange_strong",
})
_IO_CALLS = frozenset({
    "printf", "fprintf", "vfprintf", "puts", "fputs", "fwrite",
    "fread", "fopen", "fclose", "fflush", "scanf", "fscanf",
    "getline", "putchar", "fgetc", "fputc",
})
_IO_STREAM_RE = re.compile(
    r"\b(?:std::)?(?:cout|cerr|clog|cin)\b|"
    r"\b(?:std::)?[io]?fstream\b|\b(?:std::)?[io]fstream\b")
_MEMBER_PTR_CALL_RE = re.compile(r"(?:->\*|\.\*)\s*[\w(]")
# Span-emission surface: the SpanTracer type (construction, global(),
# emit()) or a *member* call named span() -- free `span(...)` stays
# legal because std::span construction appears on the hot path.
_SPAN_TOKEN_RE = re.compile(r"\bSpanTracer\b|\bSDBP_SPAN\w*\b")


def _line(fn, offset):
    return fn.body_line + fn.body.count("\n", 0, offset)


def hot_violations(fn, devirt):
    """Direct contract violations in one function body.

    `devirt` is the project-wide devirtualization oracle:
    devirt.is_final_somewhere(name) is True when some final class (or
    final method) provides `name`, making a virtual call to it
    devirtualizable by the sealed compositions -- those calls are
    allowed at source level and proven flat by the binary audit.
    """
    out = []

    def add(rule, offset, msg):
        out.append(Violation(rule=rule, file=fn.file,
                             line=_line(fn, offset),
                             symbol=fn.symbol, message=msg))

    for m in re.finditer(r"\bnew\b", fn.body):
        add("hot-alloc", m.start(), "operator new expression")
    for m in re.finditer(r"\bthrow\b(?!\s*\()", fn.body):
        add("hot-throw", m.start(), "throw expression")
    for m in _LOCK_RE.finditer(fn.body):
        add("hot-lock", m.start(), f"lock primitive '{m[0]}'")
    for m in _ATOMIC_ORDER_RE.finditer(fn.body):
        add("hot-atomic-order", m.start(),
            f"atomic ordering '{m[0]}' stronger than relaxed")
    for m in _IO_STREAM_RE.finditer(fn.body):
        add("hot-io", m.start(), f"I/O stream '{m[0]}'")
    for m in _MEMBER_PTR_CALL_RE.finditer(fn.body):
        add("hot-virtual", m.start(),
            "indirect call through member pointer")
    for m in _SPAN_TOKEN_RE.finditer(fn.body):
        add("hot-span", m.start(),
            f"span tracing '{m[0]}' (spans are cell/phase "
            f"granularity only)")

    for name, is_member, args, off in extract_calls(fn.body):
        if name in _ALLOC_CALLS:
            add("hot-alloc", off, f"call to '{name}'")
        elif is_member and name in _ALLOC_MEMBERS:
            add("hot-alloc", off,
                f"allocating container call '.{name}()'")
        elif is_member and name == "at":
            add("hot-throw", off, "throwing accessor '.at()'")
        elif name in _IO_CALLS:
            add("hot-io", off, f"call to '{name}'")
        elif is_member and name == "span":
            add("hot-span", off,
                "span emission '.span()' (spans are cell/phase "
                "granularity only)")
        elif is_member and name in _ATOMIC_RMW:
            if "memory_order_relaxed" not in args and \
                    "memory_order::relaxed" not in args:
                add("hot-atomic-order", off,
                    f"atomic '.{name}()' without relaxed ordering")
        elif is_member and devirt.is_virtual(name) and \
                not devirt.is_final_somewhere(name):
            add("hot-virtual", off,
                f"virtual call '.{name}()' with no final override "
                f"anywhere (cannot devirtualize)")
    return out


# --- determinism pack -----------------------------------------------

_WALLCLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*"
    r"now\b|(?<![\w.>])(?:time|clock)\s*\(|\bgettimeofday\b|"
    r"\blocaltime\b|\bgmtime\b|\bstrftime\b")
_RANDOM_RE = re.compile(
    r"(?<![\w.>])(?:rand|srand|rand_r)\s*\(|\brandom_device\b|"
    r"\bmt19937(?:_64)?\b|\bdefault_random_engine\b")
_GETENV_RE = re.compile(r"(?<![\w.>])(?:std::)?getenv\s*\(")
_UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(?:&\s*)?(\w+)\s*[;,={)]")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)\s*\{")
_OUTPUT_RE = re.compile(r"<<|\bprintf|\bfprintf|\.write\s*\(")


def det_violations(fn, sanctioned_getenv=False):
    """Determinism violations in one function body."""
    out = []

    def add(rule, offset, msg):
        out.append(Violation(rule=rule, file=fn.file,
                             line=_line(fn, offset),
                             symbol=fn.symbol, message=msg))

    for m in _WALLCLOCK_RE.finditer(fn.body):
        add("det-wallclock", m.start(),
            f"wall-clock read '{m[0].strip()}'")
    for m in _RANDOM_RE.finditer(fn.body):
        add("det-random", m.start(),
            f"non-seeded randomness '{m[0].strip()}' "
            f"(use sdbp::Rng)")
    if not sanctioned_getenv:
        for m in _GETENV_RE.finditer(fn.body):
            add("det-getenv", m.start(),
                "raw getenv (use the env:: helpers)")
    return out


def unordered_iteration_violations(sf):
    """det-unordered-iter: a range-for over a declared unordered
    container whose loop body produces output.  Iteration order of
    unordered containers is implementation-defined, so any output
    derived from it breaks run-to-run reproducibility."""
    out = []
    names = set(_UNORDERED_DECL_RE.findall(sf.stripped))
    if not names:
        return out
    for m in _RANGE_FOR_RE.finditer(sf.stripped):
        range_expr = m[2]
        if not any(re.search(rf"\b{re.escape(n)}\b", range_expr)
                   for n in names):
            continue
        brace = sf.stripped.index("{", m.end() - 1)
        depth, i = 0, brace
        while i < len(sf.stripped):
            if sf.stripped[i] == "{":
                depth += 1
            elif sf.stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = sf.stripped[brace:i]
        if _OUTPUT_RE.search(body):
            out.append(Violation(
                rule="det-unordered-iter", file=sf.path,
                line=1 + sf.stripped.count("\n", 0, m.start()),
                symbol="",
                message=f"output produced while iterating unordered "
                        f"container '{range_expr.strip()}'"))
    return out


ALL_RULES = {
    "hot-alloc": "heap allocation on the hot path",
    "hot-virtual": "non-devirtualizable virtual dispatch on the hot "
                   "path",
    "hot-throw": "throw (or throwing accessor) on the hot path",
    "hot-lock": "lock primitive on the hot path",
    "hot-atomic-order": "atomic operation stronger than relaxed on "
                        "the hot path",
    "hot-io": "I/O on the hot path",
    "hot-span": "span emission on the hot path (spans are cell/phase "
                "granularity only)",
    "det-wallclock": "wall-clock read outside run()'s phase clock",
    "det-random": "non-seeded randomness (use sdbp::Rng)",
    "det-getenv": "raw getenv outside the env:: wrappers",
    "det-unordered-iter": "output from unordered-container iteration",
}
