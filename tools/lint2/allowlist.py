"""File/symbol-level exemptions for lint2 findings.

Every entry must carry a written justification: the reviewer-facing argument
for why the flagged construct cannot break determinism or thread safety, or,
for test-only-option, why a config field only tests set stays an option.
Line-level escapes use `// lint-ok: <rule>` in the source instead; this file
is for structural exemptions where an inline comment would be misleading
(e.g. a whole function blessed as a delegate) or where the justification is
too long for a trailing comment.

Keys are (rule, repo-relative path, symbol).  `symbol` is matched against the
finding's subject: the variable name for global-state, the enclosing function
name (unqualified) for observer-completeness, the declared member or the
iterated container expression for unordered-iter, the field name for
test-only-option.  An empty symbol exempts
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
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "speculative_execution"):
        "The fault, fail-slow, failover and tenancy tests turn the "
        "JobTracker's own straggler speculation off to isolate the mechanism "
        "under test (hand-placed clones, quarantine, preemption).",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "max_attempts"):
        "The blacklist and fault tests raise the attempt budget so a flaky "
        "machine's failures never fail the job, which would end the "
        "timeline they measure.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "blacklist_threshold"):
        "The all-jobs-fail golden row sets it to 0 to switch blacklisting "
        "off; the blacklist tests lower it to 2 to latch after a short "
        "burst.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "blacklist_duration"):
        "The blacklist and failover tests shape the sit-out: short to watch "
        "it lift, or effectively forever so only decay can forgive.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "blacklist_decay_window"):
        "The blacklist tests set the forgiveness timeline, and 0 pins the "
        "pre-decay contract (a blacklist lasts its full duration).",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "health_ewma_alpha"):
        "The fail-slow tests tune how fast the health score reacts to a "
        "limping machine's progress samples.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "quarantine_threshold"):
        "The fail-slow tests set it to 0 to switch quarantine off, "
        "isolating speculation's response to a limper.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "health_min_samples"):
        "The fail-slow, failover and blacklist x quarantine tests lower it "
        "so quarantine latches inside a short limp.",
    ("test-only-option", "src/mapreduce/job_tracker.h",
     "quarantine_decay_window"):
        "The blacklist x quarantine test orders the two suspensions' decay; "
        "the fail-slow tests shape when a repaired limper is retried.",
    ("test-only-option", "src/sched/capacity.h",
     "preemption"):
        "The tenancy tests turn preemption off to isolate queue ranking "
        "(EDF, deadline boost, weighted shares) from the kill sweep.",
    ("test-only-option", "src/mapreduce/admission.h",
     "ewma_alpha"):
        "The detector unit tests set it to 1 to drive the raw signals, so "
        "one tick sets the overload state.",
    ("test-only-option", "src/audit/auditor.h",
     "abort_on_violation"):
        "A developer's switch: throw at the first invariant violation to "
        "stop a debugger at its cause instead of collecting a report.",
    ("test-only-option", "src/exp/runner.h",
     "time_limit"):
        "The run's safety stop: tests lower it to provoke the "
        "non-termination error, and perfbench reads it.",
}


def allowed(rule: str, rel: str, symbol: str) -> bool:
    """True when (rule, rel, symbol) is exempted (exact or whole-file)."""
    key = (rule, rel, _unqualify(symbol))
    if key in ALLOWLIST:
        return True
    return (rule, rel, "") in ALLOWLIST


def _unqualify(symbol: str) -> str:
    return symbol.rsplit("::", 1)[-1] if symbol else symbol
