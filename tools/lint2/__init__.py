"""eant-lint: the project linter for the e-ant simulator.

The simulator is the test oracle for every experiment in the paper
reproduction, so two properties are load-bearing and worth enforcing
mechanically:

  determinism   — a run is a pure function of its RunConfig + seed.  Wall
                  clocks, unseeded RNGs, shared mutable state and
                  hash-ordered iteration feeding scheduling decisions all
                  silently break that, and the thread-per-seed sweep driver
                  (exp/sweep.h) turns shared state into a data race.
  exactness     — raw floating-point ==/!= comparisons are latent bugs once
                  a value has been through arithmetic; common/fp.h provides
                  the explicit-tolerance helpers.

The textual backend always runs; a libclang AST backend adds type-aware
findings for the structural rules when the python bindings are available.

Rules (suppress a line with `// lint-ok: <rule>`; file-level exemptions live
in tools/lint2/allowlist.py and each carries a written justification):

  wall-clock       system_clock / steady_clock / time(NULL) / clock()
                   outside src/common/rng.* — sim time comes from
                   sim::Simulator, and all randomness from the seeded
                   common/rng.h Rng.
  raw-random       rand(), srand(), std::random_device — unseeded entropy.
  float-eq         == or != with a floating-point literal operand; use
                   eant::approx_equal / near_zero (common/fp.h) or
                   restructure into an ordered comparison.
  ns-in-header     `using namespace` at file scope in a header.
  machine-speed    `.type().task_runtime(...)` in src/ outside
                   src/cluster/machine.* — the nominal per-type runtime
                   ignores the fail-slow performance multipliers; use
                   Machine::effective_task_runtime (or suppress where
                   nominal time is deliberate).
  global-state     any namespace-scope or function-local `static` mutable
                   variable in src/ — thread-hostile for per-thread
                   simulators, and a determinism leak across Runs even
                   single-threaded.
  rng-discipline   eant::Rng must be constructed from a seed or fork(),
                   never copied or default-constructed mid-run (a copy
                   silently replays a stream; sink-style by-value
                   constructor parameters consuming a fork are the one
                   blessed pattern), and no RNG draw may execute inside a
                   loop over a hash-ordered container (the draw order would
                   follow the hash seed, not the config).
  unordered-iter   unordered_* containers in the order-sensitive
                   subsystems (src/{mapreduce,sched,core,sim,net,hdfs,
                   tenancy,audit}): every declaration, and every iteration
                   site (range-for, structured bindings, .begin()/.cbegin()
                   loops) over members and locals alike.
  observer-completeness
                   every task-attempt lifecycle emission point must pass
                   through the audit tap: TaskTracker functions that mutate
                   the running-slot bookkeeping must call audit_transition /
                   on_task_transition, every JobTracker revert_done_map
                   site must have the kRevertDone tap beside it, and the
                   data-integrity ledger's mutation sites (corruption
                   detection, scrub traffic, repair settlement) must sit
                   beside their kCorruptionDetected / kScrub / kRepair
                   records.  (Job-level
                   mirrors — mark_started/mark_done/unclaim — are excluded:
                   their attempt-level taps fire in the TaskTracker paths.)
  test-only-option a field of a `struct *Config` in src/ that no program
                   code (src/, bench/, examples/, perfbench/) assigns or
                   fills: only tests give it another value, so no bench or
                   golden row covers that configuration.  Make it a named
                   constant, or allowlist it with the reason it stays.
                   Fields are matched by name, so a name two structs share
                   counts as set when either is.

Scope: src/, tests/, bench/ and examples/ by default; each rule filters
paths further as stated above (global-state: src/; rng-discipline: src/ and
bench/; test-only-option: config structs in src/, with setters searched in
every program source, perfbench/ included).  The AST backend parses src/ and
bench/ only.

Modes: `--ast` forces libclang (error if unavailable), `--no-ast` forces the
textual backend alone, default auto-detects.  The AST mode is driven by
compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level
CMakeLists); pass `--compile-commands build/compile_commands.json`.
"""

RULES = (
    "wall-clock",
    "raw-random",
    "float-eq",
    "ns-in-header",
    "machine-speed",
    "global-state",
    "rng-discipline",
    "unordered-iter",
    "observer-completeness",
    "test-only-option",
)
