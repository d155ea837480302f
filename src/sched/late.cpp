#include "sched/late.h"

#include <algorithm>

namespace eant::sched {
namespace {

/// A machine is fast when its capability share is at or above this
/// quantile of the fleet's.
constexpr double kFastMachineQuantile = 0.5;

}  // namespace

bool LateScheduler::machine_is_fast(cluster::MachineId machine) {
  // "Fast" = capability share at or above the chosen quantile of the fleet.
  // The shares are fixed once the trackers started (the first query comes
  // from a heartbeat), so the quantile is computed once.
  if (!fast_share_) {
    std::vector<double> sorted;
    const std::size_t n = jt_->cluster().size();
    sorted.reserve(n);
    for (cluster::MachineId m = 0; m < n; ++m) {
      sorted.push_back(jt_->capability_share(m));
    }
    std::sort(sorted.begin(), sorted.end());
    fast_share_ = sorted[static_cast<std::size_t>(
        kFastMachineQuantile * static_cast<double>(n - 1))];
  }
  return jt_->capability_share(machine) >= *fast_share_;
}

bool LateScheduler::try_speculate(cluster::MachineId machine,
                                  mr::TaskKind kind) {
  if (!machine_is_fast(machine)) return false;

  // Longest-elapsed straggler across active jobs; with the JobTracker's
  // speculative_progress_ranking enabled the candidates are instead ranked
  // by estimated time-left from observed progress (LATE's actual heuristic),
  // which singles out attempts crawling on a limping machine rather than
  // merely old ones.
  const bool by_progress = jt_->config().speculative_progress_ranking;
  const auto pick = jt_->find_straggler(
      kind,
      [this, by_progress](const mr::JobState& js, mr::TaskKind k,
                          mr::TaskIndex i, Seconds elapsed,
                          Seconds /*mean*/) -> std::optional<Seconds> {
        if (!by_progress) return elapsed;
        return jt_->estimated_remaining_time(js.id(), k, i, elapsed);
      });
  if (!pick) return false;
  if (!jt_->start_speculative(pick->job, kind, pick->index,
                              jt_->tracker(machine))) {
    return false;
  }
  ++speculations_;
  return true;
}

std::optional<mr::JobId> LateScheduler::select_job(cluster::MachineId machine,
                                                   mr::TaskKind kind) {
  const auto& order = fair_order(kind);
  if (!order.empty()) return order.front();
  // No pending work anywhere: consider speculating on a straggler.  The
  // speculative attempt is launched directly (consuming the free slot), so
  // the answer to the JobTracker remains "no pending assignment".
  try_speculate(machine, kind);
  return std::nullopt;
}

}  // namespace eant::sched
