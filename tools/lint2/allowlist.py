"""File/symbol-level exemptions for lint2 findings.

Every entry must carry a written justification: the reviewer-facing argument
for why the flagged construct cannot break determinism or thread safety.
Line-level escapes use `// lint-ok: <rule>` in the source instead; this file
is for structural exemptions where an inline comment would be misleading
(e.g. a whole function blessed as a delegate) or where the justification is
too long for a trailing comment.

Keys are (rule, repo-relative path, symbol).  `symbol` is matched against the
finding's subject: the variable name for global-state, the enclosing function
name (unqualified) for observer-completeness, the declared member or the
iterated container expression for unordered-iter.  An empty symbol exempts
the whole file for that rule.
"""

from __future__ import annotations

ALLOWLIST: dict[tuple[str, str, str], str] = {
    ("observer-completeness", "src/mapreduce/task_tracker.cpp",
     "release_slot"):
        "Pure slot-count delegate: decrements running_maps_/running_reduces_ "
        "on behalf of the finish/fail/kill/timeout paths, every one of which "
        "emits its attempt-level audit_transition() before calling here.  "
        "Emitting again inside the delegate would double-count transitions "
        "in the auditor's conservation ledger.",
    ("unordered-iter", "src/sim/simulator.h", "queued_"):
        "Membership test only: scheduling inserts an id, the pop path "
        "erases it and cancel() asks whether it is still queued; the set is "
        "never iterated, so hash order cannot reach the event order.",
    ("unordered-iter", "src/sim/simulator.h", "cancelled_"):
        "Membership test only: cancel() inserts an id, the pop path and the "
        "periodic re-arm look it up and erase it, and pending() reads the "
        "size; the set is never iterated, so hash order cannot reach the "
        "event order.",
}


def allowed(rule: str, rel: str, symbol: str) -> bool:
    """True when (rule, rel, symbol) is exempted (exact or whole-file)."""
    key = (rule, rel, _unqualify(symbol))
    if key in ALLOWLIST:
        return True
    return (rule, rel, "") in ALLOWLIST


def _unqualify(symbol: str) -> str:
    return symbol.rsplit("::", 1)[-1] if symbol else symbol
