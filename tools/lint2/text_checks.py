"""Textual (regex + scope-scan) backend for the lint2 rules.

This backend always runs, and it is the reference implementation the
self-tests pin down: the AST backend must find a superset of what these
checks find on the project tree.  Each check operates on the `SourceFile`
model from tools/lint2/source.py — comment/string-stripped lines plus the
heuristic scope scan — so string literals and comments can never produce
findings.  The line rules (wall-clock, raw-random, float-eq, ns-in-header,
machine-speed and unordered-iter's member declarations) need no scope scan
and have no AST counterpart.

Heuristics and their known limits (acceptable for the project style, which
is clang-formatted with definitions at column 0):

  * Declarations are matched per line; a declaration split across lines is
    joined with its successor once.
  * `Rng a(b)` cannot be distinguished from seeding vs copying without
    types, so copies are flagged only when the initializer *names* an RNG
    (identifier containing `rng`) — which is every real stream variable in
    this codebase.  The AST backend removes the naming requirement.
  * Loops over hash-ordered containers are found via the declared names of
    unordered_* variables in the same file (members and locals) plus any
    range expression that textually mentions `unordered`.
"""

from __future__ import annotations

import re

from tools.lint2.findings import Finding
from tools.lint2.source import CLASS, FUNCTION, SourceFile

# Subsystems whose iteration order can feed scheduling decisions or RNG
# draws: hash-ordered containers are flagged here.
ORDER_SENSITIVE_DIRS = ("src/mapreduce", "src/sched", "src/core", "src/sim",
                        "src/net", "src/hdfs", "src/tenancy", "src/audit")

# ---------------------------------------------------------------------------
# line rules: wall-clock, raw-random, float-eq, ns-in-header, machine-speed
# ---------------------------------------------------------------------------

# Files allowed to touch entropy / wall-clock primitives: the seeded RNG
# wrapper itself.
_RNG_ALLOWLIST = {"src/common/rng.h", "src/common/rng.cpp"}

_WALL_CLOCK = re.compile(
    r"\b(?:std::chrono::)?(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"
    r"|(?<![\w:.])clock\s*\(\s*\)"
)
_RAW_RANDOM = re.compile(
    r"(?<![\w:.])s?rand\s*\(|std::random_device|(?<!\w)random_device\s+\w"
)

_FLOAT_LITERAL = (r"(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?"
                  r"|\d+[eE][-+]?\d+[fF]?")
# ==/!= with a float literal on either side.  `!=` must not match `<=`/`>=`,
# and `==` must not match a preceding `!=`/`<=`/`>=` or C++20 `<=>`.
_FLOAT_EQ = re.compile(
    r"(?:%(lit)s)\s*[=!]=(?!=)|(?<![<>!=])[=!]=(?!=)\s*[-+]?(?:%(lit)s)"
    % {"lit": _FLOAT_LITERAL}
)

_USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

# Nominal (type-level) task runtime read outside the Machine wrapper: every
# src/ call site must either go through Machine::effective_task_runtime —
# which folds in the fail-slow performance multipliers — or carry an explicit
# `// lint-ok: machine-speed` acknowledging that nominal time is intended.
_MACHINE_SPEED = re.compile(r"\.\s*type\s*\(\s*\)\s*\.\s*task_runtime\s*\(")
_MACHINE_SPEED_ALLOWLIST = {"src/cluster/machine.h", "src/cluster/machine.cpp"}


def check_line_rules(sf: SourceFile) -> list[Finding]:
    """Per-line determinism and exactness bans, at most one per rule a line.

      wall-clock     system_clock / steady_clock / time(NULL) / clock()
                     outside src/common/rng.* — sim time comes from
                     sim::Simulator, and all randomness from the seeded
                     common/rng.h Rng.
      raw-random     rand(), srand(), std::random_device — unseeded entropy.
      float-eq       == or != with a floating-point literal operand; use
                     eant::approx_equal / near_zero (common/fp.h) or
                     restructure into an ordered comparison.
      ns-in-header   `using namespace` at file scope in a header.
      machine-speed  `.type().task_runtime(...)` in src/ outside
                     src/cluster/machine.* — the nominal per-type runtime
                     ignores the fail-slow performance multipliers; use
                     Machine::effective_task_runtime (or suppress where
                     nominal time is deliberate, e.g. the launch path that
                     lets the TaskTracker apply the stretch).
    """
    out: list[Finding] = []
    is_header = sf.rel.endswith(".h")
    for lineno, code in enumerate(sf.code, start=1):

        def report(rule: str, message: str) -> None:
            out.append(Finding(rule, sf.rel, lineno, "", message))

        if sf.rel not in _RNG_ALLOWLIST:
            if _WALL_CLOCK.search(code):
                report("wall-clock",
                       "wall-clock call; use sim::Simulator time instead")
            if _RAW_RANDOM.search(code):
                report("raw-random",
                       "unseeded entropy; use the seeded eant::Rng")
        if _FLOAT_EQ.search(code):
            report("float-eq",
                   "float ==/!=; use approx_equal/near_zero (common/fp.h) "
                   "or an ordered comparison")
        if is_header and _USING_NAMESPACE.search(code):
            report("ns-in-header", "`using namespace` in a header")
        if (sf.rel.startswith("src/")
                and sf.rel not in _MACHINE_SPEED_ALLOWLIST
                and _MACHINE_SPEED.search(code)):
            report("machine-speed",
                   "nominal type-level runtime bypasses the fail-slow "
                   "perf multipliers; use Machine::effective_task_runtime")
    return out

# ---------------------------------------------------------------------------
# global-state
# ---------------------------------------------------------------------------

_STATIC = re.compile(r"(?<![\w_])static(?![\w_])")
_CONST_AFTER = re.compile(r"^\s*(?:inline\s+)?(?:const\b|constexpr\b|"
                          r"consteval\b|constinit\b)")
_DECL_NAME = re.compile(r"([A-Za-z_]\w*)\s*$")


def check_global_state(sf: SourceFile) -> list[Finding]:
    """Namespace-scope or function-local mutable `static` variables in src/.

    Such a variable is shared across every Run in the process: a thread-race
    under the parallel sweep driver, and a cross-run determinism leak even
    single-threaded.  Immutable statics (const/constexpr) and static member
    declarations are out of scope; static free *functions* (internal
    linkage) are excluded by requiring the declarator to end in `;`, `=`,
    `{` or `[` without an intervening `(`.
    """
    out: list[Finding] = []
    if not sf.rel.startswith("src/"):
        return out
    for lineno, code in enumerate(sf.code, start=1):
        m = _STATIC.search(code)
        if not m:
            continue
        rest = code[m.end():]
        if _CONST_AFTER.match(rest):
            continue
        scope = sf.scope_at(lineno)
        if scope and scope[-1] == CLASS:
            continue  # static data-member declaration, not namespace scope
        # Walk the declarator: the first structural token decides whether
        # this is a variable (terminator before any paren) or a function.
        stop = len(rest)
        terminator = ""
        for i, ch in enumerate(rest):
            if ch in ";={[(":
                stop, terminator = i, ch
                break
        if terminator in ("(", ""):
            continue  # function declaration/definition (or spans lines)
        name_m = _DECL_NAME.search(rest[:stop].rstrip())
        # Template arguments hide the name behind '>': peel the declarator.
        if not name_m:
            peeled = re.sub(r"<[^<>]*>", " ", rest[:stop])
            name_m = _DECL_NAME.search(peeled.rstrip())
        name = name_m.group(1) if name_m else "?"
        where = ("function-local" if any(s == FUNCTION for s in scope)
                 else "namespace-scope")
        out.append(Finding(
            "global-state", sf.rel, lineno, name,
            f"{where} mutable static `{name}`: shared across every Run in "
            "the process — a race under thread-per-seed sweeps and a "
            "cross-run determinism leak; justify via allowlist or "
            "`lint-ok: global-state` if provably benign"))
    return out


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

_RNG_DEFAULT = re.compile(r"\bRng\s+(\w+)\s*;")
_RNG_COPY_INIT = re.compile(
    r"\bRng\s+(\w+)\s*(?:=|\(|\{)\s*(\w*[Rr]ng\w*)\s*[;)}]")
_AUTO_COPY = re.compile(r"\bauto\s+(\w+)\s*=\s*(\w*[Rr]ng\w*)\s*;")
_RNG_BYVAL_PARAM = re.compile(r"[(,]\s*(?:eant::)?Rng\s+(\w+)\s*[,)]")
_IDENT_BEFORE_PAREN = re.compile(r"([A-Za-z_~][\w:~]*)\s*\($")
_RNG_DRAW = re.compile(
    r"\b\w*[Rr]ng\w*\s*\.\s*(?:uniform|normal|exponential|lognormal|"
    r"bernoulli|shuffle|fork)\s*\(")


def _owning_callable(sf: SourceFile, lineno: int, col: int) -> str:
    """Identifier before the innermost '(' enclosing (lineno, col).

    Joins up to three preceding lines so multi-line parameter lists find
    their function name.  Empty string when none is found.
    """
    start = max(1, lineno - 3)
    joined = " ".join(sf.code[start - 1:lineno - 1])
    joined += " " + sf.code[lineno - 1][:col]
    stack: list[int] = []
    for i, ch in enumerate(joined):
        if ch == "(":
            stack.append(i)
        elif ch == ")" and stack:
            stack.pop()
        elif ch == ";":
            stack.clear()  # a statement boundary ends any param list
    if not stack:
        return ""
    m = _IDENT_BEFORE_PAREN.search(joined[:stack[-1]].rstrip() + "(")
    return m.group(1) if m else ""


def check_rng_discipline(sf: SourceFile) -> list[Finding]:
    """eant::Rng construction and consumption discipline.

    A Run's randomness is one seeded tree of streams: Rng values enter a
    component either as a seed (`Rng(seed)`) or as a forked child
    (`parent.fork(id)`), and by-value Rng parameters are legal only on
    constructors (the sink idiom — the caller forks, the member consumes).
    Anything else replays or reorders a stream:

      * default construction — no such ctor exists today; flagging keeps it
        that way,
      * copying an existing stream (init or `auto x = rng`) — the copy
        replays the parent's future draws,
      * by-value Rng parameter on a non-constructor — a hidden copy per
        call,
      * a draw inside a loop over a hash-ordered container — the draw
        order follows the hash seed, not the RunConfig (reported under
        this rule *and* located by the unordered-iter machinery).
    """
    out: list[Finding] = []
    if not (sf.rel.startswith("src/") or sf.rel.startswith("bench/")):
        return out
    for lineno, code in enumerate(sf.code, start=1):
        scope = sf.scope_at(lineno)
        in_class = bool(scope) and scope[-1] == CLASS
        m = _RNG_DEFAULT.search(code)
        # A bare `Rng x;` at class scope is a member *declaration* (the
        # ctor-init-list seeds it); everywhere else it is a default
        # construction attempt.
        if m and not in_class:
            out.append(Finding(
                "rng-discipline", sf.rel, lineno, m.group(1),
                f"default-constructed Rng `{m.group(1)}`: every stream must "
                "derive from the run seed via Rng(seed) or fork()"))
        for m in _RNG_COPY_INIT.finditer(code):
            out.append(Finding(
                "rng-discipline", sf.rel, lineno, m.group(1),
                f"`{m.group(1)}` copies the stream of `{m.group(2)}`; the "
                "copy replays the parent's future draws — fork() a child "
                "stream instead"))
        for m in _AUTO_COPY.finditer(code):
            out.append(Finding(
                "rng-discipline", sf.rel, lineno, m.group(1),
                f"`auto {m.group(1)} = {m.group(2)}` copies an Rng stream "
                "(use a reference or fork())"))
        for m in _RNG_BYVAL_PARAM.finditer(code):
            owner = _owning_callable(sf, lineno, m.start() + 1)
            bare = owner.rsplit("::", 1)[-1] if owner else ""
            if bare[:1].isupper() or bare[:1] == "~":
                continue  # constructor sink: caller forks, member consumes
            out.append(Finding(
                "rng-discipline", sf.rel, lineno, m.group(1),
                f"by-value Rng parameter `{m.group(1)}`"
                + (f" on `{owner}`" if owner else "")
                + ": hidden stream copy per call — pass Rng& or make the "
                  "consumer a constructor sink"))
    # Draws inside hash-ordered loops.
    for lineno, body_end, expr in _unordered_loops(sf):
        for body_line in range(lineno, body_end + 1):
            if _RNG_DRAW.search(sf.code[body_line - 1]):
                out.append(Finding(
                    "rng-discipline", sf.rel, body_line, expr,
                    f"RNG draw inside a loop over hash-ordered `{expr}`: "
                    "draw order follows the hash seed, not the config — "
                    "iterate a sorted view or hoist the draws"))
    return out


# ---------------------------------------------------------------------------
# unordered-iter (v2: iteration sites, not member declarations)
# ---------------------------------------------------------------------------

_UNORDERED_DECL = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
_RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?(?:auto|[\w:<>]+)"
                        r"[&\s\[\]\w,]*:\s*([^)]+?)\s*\)")
_BEGIN_CALL = re.compile(r"(\w+)\s*\.\s*c?begin\s*\(")


def _unordered_decls(sf: SourceFile) -> list[tuple[int, str]]:
    """(line, declared name) of every std::unordered_* declaration in this
    file — members, locals and parameters alike; the name is empty when none
    follows the type.  A declaration split across lines is joined with the
    following line once.
    """
    decls: list[tuple[int, str]] = []
    for i, code in enumerate(sf.code):
        m = _UNORDERED_DECL.search(code)
        if not m:
            continue
        text = code[m.end() - 1:]
        if i + 1 < len(sf.code):
            text += " " + sf.code[i + 1]
        # Skip the balanced template argument list, then take the declared
        # identifier.
        depth, j = 0, 0
        for j, ch in enumerate(text):
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
                if depth == 0:
                    break
        name_m = re.match(r"\s*&?\s*([A-Za-z_]\w*)", text[j + 1:])
        decls.append((i + 1, name_m.group(1) if name_m else ""))
    return decls


def _loop_body_end(sf: SourceFile, lineno: int) -> int:
    """Last line of the loop whose header is at `lineno` (brace scan)."""
    depth = 0
    opened = False
    for ln in range(lineno, len(sf.code) + 1):
        for ch in sf.code[ln - 1]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return ln
        if not opened and ln > lineno:
            return ln  # braceless single-statement body
    return len(sf.code)


def _unordered_loops(sf: SourceFile) -> list[tuple[int, int, str]]:
    """(header_line, body_end_line, container_expr) for every iteration
    site over a hash-ordered container in this file."""
    names = {name for _, name in _unordered_decls(sf) if name}
    loops: list[tuple[int, int, str]] = []
    for lineno, code in enumerate(sf.code, start=1):
        expr = ""
        m = _RANGE_FOR.search(code)
        if m:
            range_expr = m.group(1).strip()
            idents = set(re.findall(r"[A-Za-z_]\w*", range_expr))
            if idents & names or "unordered" in range_expr:
                expr = range_expr
        if not expr:
            b = _BEGIN_CALL.search(code)
            if b and b.group(1) in names:
                expr = b.group(1)
        if expr:
            loops.append((lineno, _loop_body_end(sf, lineno), expr))
    return loops


def check_unordered_iter(sf: SourceFile) -> list[Finding]:
    """Hash-ordered containers in the order-sensitive subsystems.

    Iteration order is hash-seed dependent: any scheduling decision, RNG
    draw or output ordering derived from it diverges across platforms and
    libstdc++ versions.  The rule flags the actual loops — range-for (incl.
    structured bindings), and explicit .begin()/.cbegin() iteration — over
    members AND locals, plus range expressions that mention `unordered`
    textually.  A std::unordered_* declaration is flagged too (symbol: the
    declared name, for allowlisting) unless an unsuppressed loop of the same
    file already reports that container; deterministic alternatives are
    std::map / std::set / sorted vectors.
    """
    out: list[Finding] = []
    if not sf.rel.startswith(ORDER_SENSITIVE_DIRS):
        return out
    reported: set[str] = set()
    for lineno, _, expr in _unordered_loops(sf):
        out.append(Finding(
            "unordered-iter", sf.rel, lineno, expr,
            f"iteration over hash-ordered `{expr}` in an order-sensitive "
            "subsystem; iterate a sorted snapshot (std::map / sorted "
            "vector) or justify via allowlist"))
        if "unordered-iter" not in sf.suppressed[lineno - 1]:
            reported.update(re.findall(r"[A-Za-z_]\w*", expr))
    for lineno, name in _unordered_decls(sf):
        if name and name in reported:
            continue
        out.append(Finding(
            "unordered-iter", sf.rel, lineno, name,
            "hash-ordered container in an order-sensitive subsystem; "
            "use std::map/std::set or add to the allowlist with a "
            "determinism argument"))
    return out


# ---------------------------------------------------------------------------
# observer-completeness
# ---------------------------------------------------------------------------

_SLOT_MUTATION = re.compile(
    r"(?:\+\+|--)\s*running_(?:maps|reduces)_"
    r"|running_(?:maps|reduces)_\s*(?:\+\+|--|[+\-]?=(?!=))")
_TAP = re.compile(r"\b(?:audit_transition|on_task_transition)\s*\(")
_REVERT = re.compile(r"\brevert_done_map\s*\(")
_ORPHAN_WASTE = re.compile(r"\breport_waste\s*\([^;]*WasteReason::kOrphaned")
# cancel_task() routes through TaskTracker::cancel_task, which emits the
# attempt-level kKill tap itself — a blessed delegate for orphan sites.
_ORPHAN_TAP_OR_DELEGATE = re.compile(
    r"\bon_task_transition\s*\(|\bcancel_task\s*\(")
_REVERT_WINDOW = 8
_ORPHAN_WINDOW = 14

# Admission-control emission points (src/mapreduce/admission.cpp): the
# overload-state field may only change beside its kOverloadState record, and
# the rejection/drop and retry counters beside their kJobReject / kJobRetry
# records — otherwise an admission decision mutates the ledger invisibly to
# the digest.
_ADM_STATE_MUT = re.compile(r"\bstate_\s*=(?!=)")
_ADM_STATE_TAP = re.compile(r"\bkOverloadState\b")
_ADM_REJECT_MUT = re.compile(
    r"(?:\+\+|--)\s*[\w.]*\b(?:rejections|dropped)\b"
    r"|[\w.]*\b(?:rejections|dropped)\s*(?:\+\+|--|[+\-]?=(?!=))")
_ADM_REJECT_TAP = re.compile(r"\bkJobReject\b")
_ADM_RETRY_MUT = re.compile(
    r"(?:\+\+|--)\s*[\w.]*\bretries\b"
    r"|[\w.]*\bretries\s*(?:\+\+|--|[+\-]?=(?!=))")
_ADM_RETRY_TAP = re.compile(r"\bkJobRetry\b")
_ADM_WINDOW = 10

# Data-integrity emission points (src/mapreduce/job_tracker.cpp): every
# corruption-detection counter bump (checksummed read, shuffle payload or
# verified task output) must sit beside its kCorruptionDetected record,
# every scrub-traffic accumulation beside its pass's kScrub record, and
# every repair settlement beside its kRepair record — otherwise the
# detect -> repair ledger the corruption-conservation audit sums at finalize
# drifts from the record stream (and the digest) invisibly.  The counters
# live in the JobTracker's `counters_` struct, so the patterns match that
# spelling (lint_test.py checks that each still matches the committed file).
# They match mutations only: reads (the conservation sums) have no
# ++/--/compound-assignment and never fire.
_CORRUPT_DETECT_MUT = re.compile(
    r"(?:\+\+|--)\s*counters_\.(?:corruptions_detected|shuffle_corruptions|"
    r"task_output_corruptions)\b"
    r"|counters_\.(?:corruptions_detected|shuffle_corruptions|"
    r"task_output_corruptions)\s*(?:\+\+|--|[+\-]?=(?!=))")
_CORRUPT_DETECT_TAP = re.compile(r"\bkCorruptionDetected\b")
_SCRUB_MUT = re.compile(
    r"(?:\+\+|--)\s*counters_\.scrubbed_mb\b"
    r"|counters_\.scrubbed_mb\s*(?:\+\+|--|[+\-]?=(?!=))")
_SCRUB_TAP = re.compile(r"\bkScrub\b")
_REPAIR_MUT = re.compile(
    r"(?:\+\+|--)\s*counters_\.corruptions_repaired\b"
    r"|counters_\.corruptions_repaired\s*(?:\+\+|--|[+\-]?=(?!=))")
_REPAIR_TAP = re.compile(r"\bkRepair\b")
_CORRUPT_WINDOW = 8


def check_observer_completeness(sf: SourceFile) -> list[Finding]:
    """Every task-attempt lifecycle emission point passes the audit tap.

    Two concrete obligations, derived from the auditor's conservation
    ledger (audit/auditor.h):

      * task_tracker.cpp — any function that mutates the running-slot
        counters (running_maps_/running_reduces_) marks an attempt
        lifecycle edge, so its body must call audit_transition() /
        on_task_transition() (or be an allowlisted delegate whose callers
        all emit the tap first).
      * job_tracker.cpp — every revert_done_map() site is a kRevertDone
        emission point (tap within +-8 lines), and every orphan
        write-off (report_waste with WasteReason::kOrphaned) must sit
        beside its kOrphan* tap or a cancel_task() delegate (within +-14
        lines).  The data-integrity ledger has the same shape: every
        corruption-detection counter bump sits beside its
        kCorruptionDetected record, every counters_.scrubbed_mb accumulation
        beside its pass's kScrub record, and every repair settlement
        beside its kRepair record (all within +-8 lines).
      * admission.cpp — every overload-state assignment sits beside its
        kOverloadState record, every rejection/drop counter mutation
        beside a kJobReject record, and every retry counter mutation
        beside a kJobRetry record (all within +-10 lines).  A state or
        ledger change without its record is invisible to the digest and
        to the conservation checks.

    Window-based matching keeps the check honest under refactoring: moving
    the tap away from the transition is exactly the regression this guards
    against.
    """
    out: list[Finding] = []
    if sf.rel == "src/mapreduce/task_tracker.cpp":
        for region in sf.regions:
            body = range(region.start, region.end + 1)
            mutates = any(_SLOT_MUTATION.search(sf.code[ln - 1]) for ln in body)
            if not mutates:
                continue
            taps = any(_TAP.search(sf.code[ln - 1]) for ln in body)
            if not taps:
                out.append(Finding(
                    "observer-completeness", sf.rel, region.start, region.name,
                    f"`{region.name}` mutates the running-slot counters "
                    "without emitting the attempt audit tap "
                    "(audit_transition/on_task_transition)"))
    if sf.rel == "src/mapreduce/job_tracker.cpp":
        for lineno, code in enumerate(sf.code, start=1):
            if _REVERT.search(code):
                if not _near(sf, lineno, _TAP, _REVERT_WINDOW):
                    out.append(Finding(
                        "observer-completeness", sf.rel, lineno,
                        "revert_done_map",
                        "revert_done_map() without a kRevertDone "
                        f"on_task_transition tap within {_REVERT_WINDOW} "
                        "lines"))
            if _ORPHAN_WASTE.search(code):
                if not _near(sf, lineno, _ORPHAN_TAP_OR_DELEGATE,
                             _ORPHAN_WINDOW):
                    out.append(Finding(
                        "observer-completeness", sf.rel, lineno,
                        "report_waste",
                        "orphan write-off without a kOrphan* tap or "
                        f"cancel_task() delegate within {_ORPHAN_WINDOW} "
                        "lines"))
        for mut, tap, subject, what in (
                (_CORRUPT_DETECT_MUT, _CORRUPT_DETECT_TAP,
                 "counters_.corruptions_detected",
                 "corruption-detection counter mutation without its "
                 "kCorruptionDetected record"),
                (_SCRUB_MUT, _SCRUB_TAP, "counters_.scrubbed_mb",
                 "scrub-traffic accumulation without its pass's kScrub "
                 "record"),
                (_REPAIR_MUT, _REPAIR_TAP, "counters_.corruptions_repaired",
                 "repair settlement without its kRepair record")):
            for lineno, code in enumerate(sf.code, start=1):
                if mut.search(code) and not _near(sf, lineno, tap,
                                                 _CORRUPT_WINDOW):
                    out.append(Finding(
                        "observer-completeness", sf.rel, lineno, subject,
                        f"{what} within {_CORRUPT_WINDOW} lines"))
    if sf.rel == "src/mapreduce/admission.cpp":
        for mut, tap, subject, what in (
                (_ADM_STATE_MUT, _ADM_STATE_TAP, "state_",
                 "overload-state mutation without its kOverloadState record"),
                (_ADM_REJECT_MUT, _ADM_REJECT_TAP, "rejections",
                 "rejection/drop counter mutation without a kJobReject "
                 "record"),
                (_ADM_RETRY_MUT, _ADM_RETRY_TAP, "retries",
                 "retry counter mutation without a kJobRetry record")):
            for lineno, code in enumerate(sf.code, start=1):
                if mut.search(code) and not _near(sf, lineno, tap,
                                                 _ADM_WINDOW):
                    out.append(Finding(
                        "observer-completeness", sf.rel, lineno, subject,
                        f"{what} within {_ADM_WINDOW} lines"))
    return out


def _near(sf: SourceFile, lineno: int, pat: re.Pattern[str],
          window: int) -> bool:
    lo = max(1, lineno - window)
    hi = min(len(sf.code), lineno + window)
    return any(pat.search(sf.code[ln - 1]) for ln in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# test-only-option
# ---------------------------------------------------------------------------

# Program code: a config field counts as set only when one of these assigns
# or fills it.  perfbench is outside the default scan but still a caller.
OPTION_SETTER_DIRS = ("src", "bench", "examples", "perfbench")

_CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w*Config)\s*\{")
_TEMPLATE_ARGS = re.compile(r"<[^<>]*>")
_NOT_A_FIELD = re.compile(r"^(?:static|using|friend|struct|class|enum|"
                          r"typedef)\b")
# `.name =` (designated initialisers included, `==` excluded) or
# `.name.push_back(` / `.name.emplace_back(`, at the end of a member chain:
# every name in `.faults.link_mtbf =` counts as set.
_OPTION_SET = re.compile(
    r"((?:\.\s*\w+\s*)+)(?:=(?!=)|\.\s*(?:push_back|emplace_back)\s*\()")
_CHAIN_NAME = re.compile(r"\w+")


def _field_of(stmt: str) -> tuple[str, str] | None:
    """(type, name) of a data-member declaration, None for anything else."""
    if _NOT_A_FIELD.match(stmt):
        return None
    head = re.split(r"=|\{|;", stmt, maxsplit=1)[0].strip()
    bare = head
    while True:
        shorter = _TEMPLATE_ARGS.sub("", bare)
        if shorter == bare:
            break
        bare = shorter
    name = re.search(r"(\w+)$", head)
    if "(" in bare or name is None or not head[:name.start()].strip():
        return None
    return head[:name.start()].strip(), name.group(1)


def config_fields(sf: SourceFile) -> list[tuple[str, str, int]]:
    """(struct, field, line) for each data member of each `struct *Config`
    in the file, one declaration per statement at the struct's top level.
    Members whose type is itself a config struct are skipped: their own
    fields are the options."""
    out: list[tuple[str, str, int]] = []
    i, n = 0, len(sf.code)
    while i < n:
        m = _CONFIG_STRUCT.search(sf.code[i])
        i += 1
        if m is None:
            continue
        depth = 1
        stmt, start = "", 0
        while i < n and depth > 0:
            code = sf.code[i].strip()
            i += 1
            if depth == 1 and code:
                if not stmt:
                    start = i
                stmt = f"{stmt} {code}".strip()
            depth += code.count("{") - code.count("}")
            if depth == 1 and stmt.endswith((";", "}")):
                field = _field_of(stmt)
                if field is not None and "Config" not in field[0]:
                    out.append((m.group(1), field[1], start))
                stmt = ""
    return out


def check_test_only_option(files: list[SourceFile],
                           setters: list[SourceFile]) -> list[Finding]:
    """test-only-option: every field of a `struct *Config` defined in src/
    must be assigned or filled somewhere in program code — `setters` under
    OPTION_SETTER_DIRS, never tests/.  An option only tests set has a
    single value in every configuration the benches and goldens cover, so
    it should be a named constant; a field kept for tests goes in
    allowlist.py with its reason.

    Setting means `.name =` (designated initialisers included) or
    `.name.push_back(` / `.name.emplace_back(`; assigning a member of the
    field (`cfg.faults.link_mtbf =`) sets it too.  Matching is by field
    name alone, so a name two structs share counts as set when either is
    set (ChaosConfig::verify_determinism once covered SweepConfig's).
    Members whose type is a config struct are skipped.
    """
    set_names = {name
                 for sf in setters
                 if sf.rel.split("/", 1)[0] in OPTION_SETTER_DIRS
                 for code in sf.code
                 for m in _OPTION_SET.finditer(code)
                 for name in _CHAIN_NAME.findall(m.group(1))}
    out: list[Finding] = []
    for sf in files:
        if not sf.rel.startswith("src/"):
            continue
        for struct, field, line in config_fields(sf):
            if field not in set_names:
                out.append(Finding(
                    "test-only-option", sf.rel, line, field,
                    f"{struct}::{field} is set by no program code, only "
                    "(if at all) by tests; make it a named constant or "
                    "allowlist it with the reason it stays"))
    return out


ALL_CHECKS = (
    check_line_rules,
    check_global_state,
    check_rng_discipline,
    check_unordered_iter,
    check_observer_completeness,
)


def run_text_checks(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        for check in ALL_CHECKS:
            findings.extend(check(sf))
    return findings
