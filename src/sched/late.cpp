#include "sched/late.h"

#include <algorithm>

#include "common/error.h"

namespace eant::sched {

LateScheduler::LateScheduler(double straggler_beta,
                             double fast_machine_quantile)
    : straggler_beta_(straggler_beta),
      fast_machine_quantile_(fast_machine_quantile) {
  EANT_CHECK(straggler_beta >= 1.0, "straggler beta must be >= 1");
  EANT_CHECK(fast_machine_quantile >= 0.0 && fast_machine_quantile <= 1.0,
             "quantile out of range");
}

bool LateScheduler::machine_is_fast(cluster::MachineId machine) const {
  // "Fast" = capability share at or above the chosen quantile of the fleet.
  std::vector<double> shares;
  const std::size_t n = jt_->cluster().size();
  shares.reserve(n);
  for (cluster::MachineId m = 0; m < n; ++m) {
    shares.push_back(jt_->capability_share(m));
  }
  std::vector<double> sorted = shares;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      fast_machine_quantile_ * static_cast<double>(n - 1));
  return shares[machine] >= sorted[idx];
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
      kind, straggler_beta_,
      [this, by_progress](const mr::JobState& js, mr::TaskKind k,
                          mr::TaskIndex i, Seconds elapsed,
                          Seconds /*mean*/) -> std::optional<Seconds> {
        if (!by_progress) return elapsed;
        const double p = jt_->running_progress(js.id(), k, i);
        return p > 0.0 ? elapsed * (1.0 - p) / p : elapsed;
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
  const auto order = fair_order(kind);
  if (!order.empty()) return order.front();
  // No pending work anywhere: consider speculating on a straggler.  The
  // speculative attempt is launched directly (consuming the free slot), so
  // the answer to the JobTracker remains "no pending assignment".
  try_speculate(machine, kind);
  return std::nullopt;
}

}  // namespace eant::sched
