"""libclang (AST) backend for the lint2 rules.

Mirrors the textual rules in tools/lint2/text_checks.py with real types and
scopes instead of heuristics: multi-line declarations, typedef'd containers
and non-`rng`-named stream copies are all visible here.  The backend is
strictly additive — the engine always runs the text checks and merges AST
findings on top (deduplicated per rule+file+line) — so an environment
without libclang loses recall, never soundness of the committed baseline.

Everything is defensive: clang.cindex may be missing (the dev container
ships no python bindings), the library may fail to load, and individual
translation units may fail to parse.  Any of those degrades to the text
backend for the affected files; `--ast` turns the first two into hard
errors for CI lanes that install python3-clang.

observer-completeness is deliberately NOT re-implemented here: it is a
project-specific emission-point audit over named files, and the text check
is already exact for them.  Neither are the line rules (wall-clock,
raw-random, float-eq, ns-in-header, machine-speed) or unordered-iter's
declaration half: they need no types.
"""

from __future__ import annotations

import json
import shlex
from pathlib import Path

from tools.lint2.findings import Finding
from tools.lint2.text_checks import ORDER_SENSITIVE_DIRS


def ast_available() -> str | None:
    """None when usable, else a one-line reason it is not."""
    try:
        from clang import cindex  # noqa: F401
    except Exception as e:  # pragma: no cover - environment dependent
        return f"python clang bindings unavailable ({e.__class__.__name__})"
    try:
        from clang import cindex
        cindex.Index.create()
    except Exception as e:  # pragma: no cover - environment dependent
        return f"libclang failed to load ({e})"
    return None


def _compile_args(cc_path: Path | None, repo: Path) -> dict[str, list[str]]:
    """source-path -> compiler args from compile_commands.json (sans -c/-o)."""
    args: dict[str, list[str]] = {}
    if cc_path is None or not cc_path.is_file():
        return args
    for entry in json.loads(cc_path.read_text(encoding="utf-8")):
        if "command" in entry:
            argv = shlex.split(entry["command"])
        else:
            argv = list(entry.get("arguments", []))
        keep: list[str] = []
        skip_next = False
        for a in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-o"):
                skip_next = a == "-o"
                continue
            if a.endswith((".cpp", ".cc", ".o")):
                continue
            keep.append(a)
        src = str((Path(entry["directory"]) / entry["file"]).resolve())
        args[src] = keep
    return args


_FALLBACK_ARGS = ["-std=c++20", "-xc++"]


def run_ast_checks(files, cc_path: Path | None, repo: Path,
                   notes: list[str]) -> list[Finding]:
    """AST findings for the given SourceFiles (parse failures are noted and
    skipped, never fatal)."""
    from clang import cindex

    index = cindex.Index.create()
    by_abs = {str((repo / sf.rel).resolve()): sf for sf in files}
    compile_args = _compile_args(cc_path, repo)
    findings: list[Finding] = []

    # Parse every .cpp as a TU; headers are analysed through their includers.
    for abs_path, sf in sorted(by_abs.items()):
        if not abs_path.endswith((".cpp", ".cc")):
            continue
        args = compile_args.get(abs_path)
        if args is None:
            args = _FALLBACK_ARGS + [f"-I{repo / 'src'}"]
        try:
            tu = index.parse(abs_path, args=args)
        except Exception as e:  # pragma: no cover - environment dependent
            notes.append(f"lint2: AST parse failed for {sf.rel}: {e}")
            continue
        findings.extend(_walk(tu, by_abs, repo))
    return findings


def _rel_of(cursor, by_abs, repo: Path) -> str | None:
    loc = cursor.location
    if loc.file is None:
        return None
    abs_name = str(Path(loc.file.name).resolve())
    sf = by_abs.get(abs_name)
    if sf is not None:
        return sf.rel
    try:
        rel = Path(abs_name).relative_to(repo).as_posix()
    except ValueError:
        return None
    return rel if rel.startswith(("src/", "bench/")) else None


def _walk(tu, by_abs, repo: Path) -> list[Finding]:
    from clang import cindex

    K = cindex.CursorKind
    out: list[Finding] = []
    class_kinds = {K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE,
                   K.UNION_DECL}

    for c in tu.cursor.walk_preorder():
        rel = _rel_of(c, by_abs, repo)
        if rel is None:
            continue
        line = c.location.line

        # global-state: static VAR_DECL outside class bodies, mutable type.
        if (c.kind == K.VAR_DECL
                and c.storage_class == cindex.StorageClass.STATIC
                and rel.startswith("src/")):
            parent = c.semantic_parent
            in_class = parent is not None and parent.kind in class_kinds
            const = (c.type.is_const_qualified()
                     or c.type.get_canonical().is_const_qualified())
            if not in_class and not const:
                out.append(Finding(
                    "global-state", rel, line, c.spelling,
                    f"mutable static `{c.spelling}` (AST): shared across "
                    "every Run in the process — race under thread-per-seed "
                    "sweeps; justify via allowlist or lint-ok"))

        # rng-discipline: by-value Rng parameters outside constructors, and
        # Rng variables initialised from another Rng lvalue (copy).
        if c.kind == K.PARM_DECL and _is_rng_value(c.type):
            parent = c.semantic_parent
            if parent is not None and parent.kind not in (
                    K.CONSTRUCTOR, K.FUNCTION_TEMPLATE):
                out.append(Finding(
                    "rng-discipline", rel, line, c.spelling,
                    f"by-value Rng parameter `{c.spelling}` on "
                    f"`{parent.spelling}` (AST): hidden stream copy per "
                    "call — pass Rng& or make the consumer a constructor "
                    "sink"))
        if c.kind == K.VAR_DECL and _is_rng_value(c.type):
            if _initialized_from_rng_lvalue(c):
                out.append(Finding(
                    "rng-discipline", rel, line, c.spelling,
                    f"`{c.spelling}` copy-constructs from an existing Rng "
                    "(AST): the copy replays the parent's future draws — "
                    "fork() a child stream instead"))

        # unordered-iter: range-for whose range type is an unordered_*.
        if (c.kind == K.CXX_FOR_RANGE_STMT
                and rel.startswith(ORDER_SENSITIVE_DIRS)):
            expr = _range_expr_of(c)
            if expr is not None and "unordered_" in _type_spelling(expr):
                out.append(Finding(
                    "unordered-iter", rel, line,
                    expr.spelling or "<range>",
                    "range-for over a hash-ordered container (AST) in an "
                    "order-sensitive subsystem; iterate a sorted snapshot"))
    return out


def _is_rng_value(t) -> bool:
    canon = t.get_canonical()
    spelling = canon.spelling
    return (spelling.endswith("::Rng") or spelling == "Rng") \
        and canon.kind.name not in ("LVALUEREFERENCE", "RVALUEREFERENCE",
                                    "POINTER")


def _initialized_from_rng_lvalue(var_cursor) -> bool:
    """True when a VAR_DECL's initializer is (a cast of) a plain DECL_REF to
    another Rng variable — i.e. a copy, not Rng(seed) / fork()."""
    from clang import cindex
    K = cindex.CursorKind
    for child in var_cursor.get_children():
        node = child
        # Unwrap trivial wrappers around the initializer expression.
        for _ in range(6):
            kids = list(node.get_children())
            if node.kind == K.DECL_REF_EXPR:
                return _is_rng_value(node.type)
            if node.kind == K.CALL_EXPR:
                # Rng(seed) / x.fork(i): a call producing a fresh stream.
                # The implicit copy-ctor also shows up as CALL_EXPR with a
                # single DECL_REF argument of type Rng.
                if len(kids) == 1 and kids[0].kind == K.DECL_REF_EXPR:
                    return _is_rng_value(kids[0].type)
                return False
            if len(kids) != 1:
                return False
            node = kids[0]
    return False


def _range_expr_of(for_range_cursor):
    kids = list(for_range_cursor.get_children())
    # Children: [loop var decl, range expr, body] in libclang's exposure;
    # pick the first expression-like child after the decl.
    for k in kids[1:]:
        if k.kind.is_expression():
            return k
    return kids[1] if len(kids) > 1 else None


def _type_spelling(cursor) -> str:
    try:
        return cursor.type.get_canonical().spelling
    except Exception:  # pragma: no cover
        return ""
