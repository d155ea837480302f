// Thread-per-seed sweep driver: runs the same experiment once per seed with
// one fully independent, single-threaded Run per worker thread.
//
// The simulator's determinism contract — a run is a pure function of
// RunConfig + seed — means seeds never need to share anything: each cell
// builds its own Simulator, Cluster, NameNode, JobTracker and scheduler.
// The driver exploits exactly that and nothing more; no simulator object is
// ever touched by two threads.  Results land in pre-allocated per-index
// slots, so output order is seed order no matter which cell finishes first,
// and an N-seed parallel sweep produces bit-identical RunMetrics (and
// determinism digests) to the serial loop it replaces.
//
// Thread-safety requirements on the inputs, enforced by convention and by
// tools/lint2's global-state check over src/: the ClusterBuilder and the job
// list are invoked/read concurrently and must be stateless (capture only
// immutable data); everything mutable is per-cell.

#pragma once

#include <cstdint>
#include <vector>

#include "exp/builders.h"
#include "exp/metrics.h"
#include "exp/runner.h"
#include "workload/job_spec.h"

namespace eant::exp {

/// Sweep-wide knobs.
struct SweepConfig {
  /// Worker threads (0 = one per hardware thread, 1 = serial on the calling
  /// thread).  Cells beyond the thread count queue and run as workers free.
  unsigned threads = 0;
};

/// Outcome of one seed's run.
struct SeedOutcome {
  std::uint64_t seed = 0;
  RunMetrics metrics;
};

/// Runs (cluster, scheduler, base config, jobs) once per seed — base.seed is
/// overwritten per cell — and returns outcomes in the order of `seeds`,
/// regardless of completion order.  Exceptions from any cell propagate to
/// the caller after in-flight cells drain.
std::vector<SeedOutcome> sweep_seeds(const ClusterBuilder& build_cluster,
                                     SchedulerKind scheduler,
                                     const RunConfig& base,
                                     const std::vector<workload::JobSpec>& jobs,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepConfig& sc = {});

}  // namespace eant::exp
