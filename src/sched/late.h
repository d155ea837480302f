// LATE-style speculative execution (Zaharia et al., OSDI'08), provided as an
// extension baseline from the paper's related work (Sec. VII).
//
// On top of Fair sharing, when a machine has a free slot and no pending work
// exists, LATE looks for the longest-running straggler task — one whose
// elapsed time exceeds mr::kStragglerBeta x the mean duration of the job's
// completed tasks of the same kind — and launches a duplicate attempt on
// this machine if it is among the faster machines of the cluster.  The
// first attempt to finish wins.

#pragma once

#include "sched/fair.h"

namespace eant::sched {

/// Fair sharing plus straggler speculation.
class LateScheduler final : public FairScheduler {
 public:
  std::optional<mr::JobId> select_job(cluster::MachineId machine,
                                      mr::TaskKind kind) override;

  std::string name() const override { return "LATE"; }

  /// Number of speculative attempts launched so far (observability).
  std::size_t speculations() const { return speculations_; }

 private:
  bool machine_is_fast(cluster::MachineId machine);
  bool try_speculate(cluster::MachineId machine, mr::TaskKind kind);

  std::size_t speculations_ = 0;
  /// The fleet's fast-machine capability share, from the first query on.
  std::optional<double> fast_share_;
};

}  // namespace eant::sched
