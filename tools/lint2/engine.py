"""lint2 driver: file discovery, backend selection, suppression/allowlist
filtering, reporting.

Backend policy: the textual checks ALWAYS run (they are the committed
baseline and the self-tested reference); the AST backend, when libclang is
importable (or forced with --ast), runs on top over the default scan's src/
and bench/ files (or every explicitly named file) and its findings are
merged, deduplicated per (rule, file, line).  Both funnels pass through the
same filters, so a `// lint-ok: <rule>` comment or an allowlist.py entry
silences a finding regardless of which backend produced it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.lint2 import RULES
from tools.lint2.allowlist import allowed
from tools.lint2.findings import Finding
from tools.lint2.source import SourceFile, load
from tools.lint2.text_checks import (OPTION_SETTER_DIRS,
                                     check_test_only_option, run_text_checks)

REPO = Path(__file__).resolve().parent.parent.parent
SCAN_DIRS = ["src", "tests", "bench", "examples"]
# The AST backend's default scope: the code compile_commands.json describes.
AST_SCAN_DIRS = ("src/", "bench/")
EXTS = {".h", ".cpp", ".cc"}


def discover(paths: list[str]) -> list[Path]:
    roots = [REPO / p for p in paths] if paths else [REPO / d
                                                    for d in SCAN_DIRS]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in EXTS)
    return files


def filter_findings(findings: list[Finding],
                    files: dict[str, SourceFile]) -> list[Finding]:
    """Drop suppressed/allowlisted findings; dedup (rule, rel, line)."""
    kept: list[Finding] = []
    seen: set[tuple[str, str, int]] = set()
    for f in sorted(findings, key=lambda f: (f.rel, f.line, f.rule)):
        key = (f.rule, f.rel, f.line)
        if key in seen:
            continue
        seen.add(key)
        sf = files.get(f.rel)
        if sf is not None and 1 <= f.line <= len(sf.suppressed):
            if f.rule in sf.suppressed[f.line - 1]:
                continue
        if allowed(f.rule, f.rel, f.symbol):
            continue
        kept.append(f)
    return kept


def run(paths: list[str], mode: str,
        compile_commands: str | None) -> tuple[list[Finding], list[str]]:
    """Returns (findings, notes).  `mode` is auto | ast | text."""
    notes: list[str] = []
    sources = [load(p, REPO) for p in discover(paths)]
    by_rel = {sf.rel: sf for sf in sources}

    findings = run_text_checks(sources)
    # test-only-option reads every program source for setters, scanned or
    # not, so naming one header still checks it against the whole tree.
    setters = [by_rel.get(p.relative_to(REPO).as_posix()) or load(p, REPO)
               for p in discover(list(OPTION_SETTER_DIRS))]
    findings.extend(check_test_only_option(sources, setters))

    if mode != "text":
        from tools.lint2.ast_checks import ast_available, run_ast_checks
        reason = ast_available()
        if reason is None:
            cc = Path(compile_commands) if compile_commands else None
            if cc is not None and not cc.is_file():
                notes.append(f"lint2: compile commands not found at {cc}; "
                             "AST mode parsing with default flags")
                cc = None
            ast_sources = sources if paths else [
                sf for sf in sources if sf.rel.startswith(AST_SCAN_DIRS)]
            findings.extend(run_ast_checks(ast_sources, cc, REPO, notes))
            notes.append("lint2: backends = text + AST (libclang)")
        elif mode == "ast":
            raise SystemExit(f"lint2: --ast requested but {reason}")
        else:
            notes.append(f"lint2: {reason}; textual fallback only")
    else:
        notes.append("lint2: backend = text (forced)")

    return filter_findings(findings, by_rel), notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint2",
        description="Determinism and concurrency checks for the e-ant "
                    "simulator (see tools/lint2/__init__.py for the rules).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories relative to the repo "
                             "root (default: src tests bench examples)")
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument("--ast", action="store_true",
                         help="require the libclang backend (error if "
                              "unavailable)")
    backend.add_argument("--no-ast", action="store_true",
                         help="textual backend only")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="compile_commands.json for AST parsing "
                             "(e.g. build/compile_commands.json)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    mode = "ast" if args.ast else "text" if args.no_ast else "auto"
    findings, notes = run(args.paths, mode, args.compile_commands)

    for n in notes:
        print(n, file=sys.stderr)
    for f in findings:
        print(f.render())
    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    print(f"lint2 clean ({len(discover(args.paths))} files).")
    return 0
