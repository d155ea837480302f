"""Source model shared by the lint2 checks.

Loads a C++ file once into a `SourceFile`: raw lines, comment/string-stripped
lines (so string literals and comments never produce findings), per-line
`// lint-ok:` suppressions, and a brace-scope scan that
classifies every line's enclosing scope chain (namespace / class / function /
block).  The scope scan is a heuristic, not a parser — it keys off statement
keywords and the identifier-before-`(` shape of function definition headers —
but it is exact for the project style (clang-format, 2-space indent,
definitions at column 0), and the AST mode replaces it wholesale when
libclang is available.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

# `// lint-ok: <rule>` silences that rule's findings on its line.
SUPPRESS = re.compile(r"//\s*lint-ok:\s*([\w-]+)")

# Scope kinds pushed by the brace scanner.
NAMESPACE, CLASS, FUNCTION, BLOCK = "namespace", "class", "function", "block"

_CLASS_HEADER = re.compile(r"\b(?:class|struct|union|enum)\b")
_NAMESPACE_HEADER = re.compile(r"\bnamespace\b")
# Statement keywords whose parenthesised header must not be mistaken for a
# function definition.
_CONTROL = re.compile(r"\b(?:if|for|while|switch|catch|do|else|return)\b")


@dataclass
class Region:
    """A function definition: [start, end] line range (1-based, inclusive)."""

    name: str
    start: int
    end: int


@dataclass
class SourceFile:
    rel: str                      # repo-relative posix path
    raw: list[str]                # verbatim lines
    code: list[str]               # comment/string-stripped, same line count
    suppressed: list[set[str]]    # per-line `lint-ok:` rules
    scopes: list[tuple[str, ...]] = field(default_factory=list)  # per line
    regions: list[Region] = field(default_factory=list)

    def scope_at(self, lineno: int) -> tuple[str, ...]:
        """Scope chain in effect at the *start* of 1-based line `lineno`."""
        return self.scopes[lineno - 1]

    def region_at(self, lineno: int) -> Region | None:
        for r in self.regions:
            if r.start <= lineno <= r.end:
                return r
        return None


def strip_comments_and_strings(line: str, in_block: bool) -> tuple[str, bool]:
    """Blanks out string/char literals and comments, preserving length.

    Tracks /* */ across lines via `in_block`.  Good enough for regex rules;
    raw strings spanning lines are rare here and acceptable noise.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            out.append("  ")
            i += 2
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    break
                j += 1
            j = min(j, n - 1)
            out.append(quote + " " * (j - i - 1) + (line[j] if j < n else ""))
            i = j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def load(path: Path, repo: Path) -> SourceFile:
    rel = path.relative_to(repo).as_posix()
    raw = path.read_text(encoding="utf-8").splitlines()
    code: list[str] = []
    suppressed: list[set[str]] = []
    in_block = False
    for line in raw:
        suppressed.append({m.group(1) for m in SUPPRESS.finditer(line)})
        stripped, in_block = strip_comments_and_strings(line, in_block)
        code.append(stripped)
    sf = SourceFile(rel=rel, raw=raw, code=code, suppressed=suppressed)
    _scan_scopes(sf)
    return sf


def _classify_open(header: str) -> str:
    """Classify the scope a `{` opens from the statement text before it."""
    if _NAMESPACE_HEADER.search(header):
        return NAMESPACE
    if _CLASS_HEADER.search(header) and "(" not in header.split("class")[-1]:
        return CLASS
    if "(" in header and not _CONTROL.search(header):
        return FUNCTION
    return BLOCK


_FUNC_NAME = re.compile(r"([\w:~]+)\s*\([^()]*$|([\w:~]+)\s*\(.*\)")


def _header_func_name(header: str) -> str:
    """Best-effort function name from a definition header."""
    # Last identifier (possibly qualified) directly before a '('.
    best = ""
    for m in re.finditer(r"([A-Za-z_~][\w:~]*)\s*\(", header):
        best = m.group(1)
    return best


def _scan_scopes(sf: SourceFile) -> None:
    """Populate sf.scopes (chain at start of each line) and sf.regions."""
    stack: list[tuple[str, str, int]] = []  # (kind, name, open_line)
    # Text of the statement currently being accumulated before its '{'.
    header = ""
    for lineno, line in enumerate(sf.code, start=1):
        sf.scopes.append(tuple(k for k, _, _ in stack))
        for ch in line:
            if ch == "{":
                kind = _classify_open(header)
                name = _header_func_name(header) if kind == FUNCTION else ""
                # A '{' inside a function is a plain block (lambdas inside a
                # function stay part of the enclosing region).
                if any(k == FUNCTION for k, _, _ in stack):
                    kind, name = BLOCK, ""
                stack.append((kind, name, lineno))
                header = ""
            elif ch == "}":
                if stack:
                    kind, name, open_line = stack.pop()
                    if kind == FUNCTION:
                        sf.regions.append(Region(name, open_line, lineno))
                header = ""
            elif ch == ";":
                header = ""
            else:
                header += ch
        header += " "  # line break separates tokens
    # Unterminated regions (truncated file): close at EOF.
    for kind, name, open_line in stack:
        if kind == FUNCTION:
            sf.regions.append(Region(name, open_line, len(sf.code)))
    sf.regions.sort(key=lambda r: r.start)
