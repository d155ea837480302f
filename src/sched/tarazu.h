// Tarazu-style communication-aware load balancing (Ahmad et al., ASPLOS'12)
// — the paper's second baseline.
//
// Tarazu improves MapReduce on heterogeneous clusters by (a) balancing map
// placement in proportion to machine compute capability, which avoids both
// overloading wimpy nodes and the bursty shuffle traffic caused by skewed
// map-output placement, and (b) otherwise sharing fairly.  This
// reimplementation refines the Fair ordering with a capability-proportional
// map quota per machine: a machine already holding more than slack x its
// capability share of a job's maps must wait a heartbeat before taking more
// of that job's work.  The balanced placement pays off through the
// JobTracker's shuffle-skew penalty and by keeping slow nodes uncongested —
// exactly the mechanism (performance, not energy) the paper credits Tarazu
// with in Sec. VI-A.

#pragma once

#include "sched/fair.h"

namespace eant::sched {

/// Capability-proportional, communication-aware balancing on top of Fair.
class TarazuScheduler final : public FairScheduler {
 public:
  std::optional<mr::JobId> select_job(cluster::MachineId machine,
                                      mr::TaskKind kind) override;

  std::string name() const override { return "Tarazu"; }

 private:
  bool over_quota(const mr::JobState& job, cluster::MachineId machine);

  /// The fleet's median per-core speed, from the first query on.
  std::optional<double> median_speed_;
};

}  // namespace eant::sched
