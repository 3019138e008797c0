"""A pragmatic C++ source model for the contract checker.

No libclang is available in the build image, so this module scans C++
the honest-but-simple way: strip comments and string literals
(preserving line numbers), then walk braces while tracking a scope
stack of namespaces and classes.  Function definitions are recognized
at their opening brace; their bodies are captured verbatim for the
rule pack, and calls are extracted with a small set of regexes.

The model is deliberately conservative: anything it cannot resolve it
skips rather than guesses, and the binary audit (hotpath_audit.py)
backstops what the source level cannot see (inlining, templates,
library internals).
"""

import re
from dataclasses import dataclass, field

# Keywords that look like calls to the extractor.
_NOT_CALLS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "catch", "decltype", "noexcept", "static_assert",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "defined", "assert", "typeid", "throw", "new", "delete",
})

_ALLOW_RE = re.compile(r"//\s*sdbp-lint:\s*allow\(([\w*,\s-]+)\)")
_ID_CALL_RE = re.compile(r"([A-Za-z_][\w]*(?:::[\w~]+)*)\s*\(")


def strip_comments_and_strings(text):
    """Blank comments and string/char literals, preserving newlines.

    Returns (stripped_text, allows) where allows maps a 1-based line
    number to the set of rule ids suppressed on that line via
    ``// sdbp-lint: allow(rule-a, rule-b)``.
    """
    allows = {}
    for i, line in enumerate(text.splitlines(), start=1):
        m = _ALLOW_RE.search(line)
        if m:
            allows[i] = {r.strip() for r in m[1].split(",")}

    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m[1] + '"', i + m.end())
            end = n if end < 0 else end + len(m[1]) + 2
            for ch in text[i:end]:
                out.append("\n" if ch == "\n" else " ")
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out), allows


def _blank_preprocessor(stripped):
    """Blank preprocessor directives (including continuation lines)
    so `#define SDBP_HOT_PATH ...` and friends cannot leak tokens
    into the signature heads.  Conditional blocks themselves are kept
    — scanning both arms of an #if is the conservative choice."""
    out = []
    cont = False
    for line in stripped.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


@dataclass
class Function:
    """One function definition or in-class declaration."""
    name: str                # unqualified name
    cls: str                 # enclosing/explicit class, "" for free
    file: str
    line: int                # 1-based line of the signature
    hot: bool = False
    virtual: bool = False
    body: str = ""           # stripped body text ("" for declarations)
    body_line: int = 0       # line where the body starts

    @property
    def symbol(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    name: str
    final: bool = False
    virtual_methods: set = field(default_factory=set)
    override_methods: set = field(default_factory=set)
    final_methods: set = field(default_factory=set)


@dataclass
class SourceFile:
    path: str
    text: str
    stripped: str
    allows: dict
    functions: list = field(default_factory=list)
    classes: list = field(default_factory=list)


_NAMESPACE_RE = re.compile(r"namespace(?:\s+([\w:]+))?\s*$")
_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(\w+)\s*(final)?\s*(?::[^;{}]*)?$")
_ENUM_RE = re.compile(r"\benum\b[^;{}]*$")
_FUNC_NAME_RE = re.compile(
    r"([A-Za-z_~][\w]*(?:::~?\w+)*)\s*(?:<[^<>();]*>)?\s*\(")
_VIRT_DECL_RE = re.compile(
    r"\bvirtual\b[^;{}]*?([A-Za-z_~]\w*)\s*\([^;{}]*$|"
    r"\bvirtual\b[^;{}]*?\boperator\b")


def _find_matching_brace(text, open_idx):
    """Index one past the brace matching text[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _head_function(head):
    """If `head` (text before a '{') looks like a function signature,
    return (name, class_qualifier); else None.

    The name is the identifier before the first call-like paren --
    which is the function's own paren for both plain signatures and
    constructors with init-lists.
    """
    if "(" not in head:
        return None
    for m in _FUNC_NAME_RE.finditer(head):
        name = m[1]
        base = name.split("::")[-1]
        if base in _NOT_CALLS or base in ("SDBP_HOT_PATH",):
            continue
        # `= {` initializers and lambdas assigned at file scope are
        # not function definitions.
        if "=" in head[:m.start()] and "operator" not in head:
            return None
        cls = ""
        if "::" in name:
            parts = name.split("::")
            cls, name = parts[-2], parts[-1]
        return name, cls
    return None


def _scan_class_decls(cls, body, body_line, path, allows, hot_out):
    """Record virtual/override/final method names declared in a class
    body, and emit Function records for in-class declarations (no
    body) so hot annotations on declarations reach the manifest."""
    # Statements at class depth: split on ';' and '{...}' blocks at
    # depth 0 of the class body.
    i, start, depth = 0, 0, 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "{":
            end = _find_matching_brace(body, i)
            i = end
            start = i
            continue
        if c == ";":
            stmt = body[start:i]
            line = body_line + body.count("\n", 0, start)
            _record_stmt(cls, stmt, line, path, allows, hot_out)
            i += 1
            start = i
            continue
        i += 1


def _record_stmt(cls, stmt, line, path, allows, hot_out):
    got = _head_function(stmt) if "(" in stmt else None
    name = got[0] if got else None
    if "virtual" in stmt.split() and name:
        cls.virtual_methods.add(name)
    if name and re.search(r"\)\s*[\w\s]*\boverride\b", stmt):
        cls.override_methods.add(name)
        if re.search(r"\boverride\b\s*\bfinal\b|\bfinal\b\s*"
                     r"\boverride\b", stmt):
            cls.final_methods.add(name)
    if name and "SDBP_HOT_PATH" in stmt:
        # Line of the statement's first non-blank content.
        lead = len(stmt) - len(stmt.lstrip())
        decl_line = line + stmt.count("\n", 0, lead)
        hot_out.append(Function(
            name=name, cls=cls.name, file=path, line=decl_line,
            hot=True, virtual="virtual" in stmt.split() or
            "override" in stmt))


def parse_file(path, text=None):
    """Parse one C++ file into a SourceFile model."""
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    stripped, allows = strip_comments_and_strings(text)
    stripped = _blank_preprocessor(stripped)
    sf = SourceFile(path=path, text=text, stripped=stripped,
                    allows=allows)

    i, start = 0, 0
    n = len(stripped)
    scope = []  # list of ("ns"|"class"|"other", ClassInfo|None, end)
    while i < n:
        c = stripped[i]
        if c in ";}":
            if c == "}" and scope and i >= scope[-1][2] - 1:
                scope.pop()
            i += 1
            start = i
            continue
        if c != "{":
            i += 1
            continue

        raw_head = stripped[start:i]
        head = raw_head.strip()
        # Line of the head's first token.
        head_off = start + (len(raw_head) - len(raw_head.lstrip()))
        line = 1 + stripped.count("\n", 0, head_off)

        ns = _NAMESPACE_RE.search(head)
        cls_m = None if _ENUM_RE.search(head) else _CLASS_RE.search(head)
        fn = None
        in_class = scope and scope[-1][0] == "class"
        if not ns and not cls_m:
            fn = _head_function(head)

        if ns:
            scope.append(("ns", None, _find_matching_brace(stripped, i)))
            i += 1
            start = i
        elif cls_m:
            info = ClassInfo(name=cls_m[1],
                             final=bool(cls_m[2]))
            end = _find_matching_brace(stripped, i)
            sf.classes.append(info)
            hot_decls = []
            _scan_class_decls(info, stripped[i + 1:end - 1],
                              1 + stripped.count("\n", 0, i + 1),
                              path, allows, hot_decls)
            sf.functions.extend(hot_decls)
            scope.append(("class", info, end))
            i += 1
            start = i
        elif fn:
            name, cls = fn
            if not cls and in_class:
                cls = scope[-1][1].name
            end = _find_matching_brace(stripped, i)
            body = stripped[i + 1:end - 1]
            f = Function(
                name=name, cls=cls, file=path, line=line,
                hot="SDBP_HOT_PATH" in head,
                virtual="virtual" in head.split(),
                body=body,
                body_line=1 + stripped.count("\n", 0, i))
            if in_class:
                info = scope[-1][1]
                if f.virtual:
                    info.virtual_methods.add(name)
                if re.search(r"\boverride\b", head):
                    info.override_methods.add(name)
            sf.functions.append(f)
            i = end
            start = i
        else:
            scope.append(("other", None,
                          _find_matching_brace(stripped, i)))
            i += 1
            start = i
    return sf


def extract_calls(body):
    """Yield (name, is_member, args, offset) for call sites in a
    stripped function body.  `args` is the raw argument text."""
    for m in _ID_CALL_RE.finditer(body):
        name = m[1]
        base = name.split("::")[-1]
        if base in _NOT_CALLS:
            continue
        before = body[:m.start()].rstrip()
        is_member = before.endswith(".") or before.endswith("->")
        # Declarations like `int foo(` are indistinguishable from
        # calls at this level; the rule pack only keys on known-bad
        # names, so the ambiguity is harmless.
        close = _find_matching_paren(body, m.end() - 1)
        args = body[m.end():close - 1] if close else ""
        yield base, is_member, args, m.start()


def _find_matching_paren(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return 0
