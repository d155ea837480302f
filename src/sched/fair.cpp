#include "sched/fair.h"

#include <algorithm>

#include "common/error.h"

namespace eant::sched {

FairScheduler::FairScheduler(int locality_delay)
    : locality_delay_(locality_delay) {
  EANT_CHECK(locality_delay >= 0, "locality delay must be non-negative");
}

const std::vector<mr::JobId>& FairScheduler::fair_order(mr::TaskKind kind) {
  EANT_CHECK(jt_ != nullptr, "scheduler not attached");
  jt_->runnable_jobs(kind, order_);
  if (order_.empty()) return order_;

  const std::size_t active = jt_->active_jobs().size();
  const double share =
      static_cast<double>(jt_->total_slots()) / static_cast<double>(active);
  EANT_ASSERT(share > 0.0, "cluster has no slots");

  // Sort most-starved-first by occupied/share; ties resolved by submission
  // order (earlier job first), matching the Hadoop Fair Scheduler.
  std::stable_sort(order_.begin(), order_.end(),
                   [&](mr::JobId a, mr::JobId b) {
                     const double ra = jt_->job(a).occupied_slots() / share;
                     const double rb = jt_->job(b).occupied_slots() / share;
                     if (ra != rb) return ra < rb;
                     return a < b;
                   });
  return order_;
}

std::optional<mr::JobId> FairScheduler::select_job(
    cluster::MachineId machine, mr::TaskKind kind) {
  const auto& order = fair_order(kind);
  if (order.empty()) return std::nullopt;
  if (locality_delay_ == 0 || overload_relaxed_ ||
      kind != mr::TaskKind::kMap) {
    return order.front();
  }

  // Delay scheduling: walk the fair ordering; a job with node-local data
  // here runs (resetting its skip budget), a job without waits until it has
  // been skipped long enough.  With a multi-rack topology the wait is
  // two-level (Zaharia's D1/D2): one delay budget buys a rack-local launch,
  // twice that buys launching anywhere.  With one flat rack this reduces to
  // the classic single threshold.
  const bool racked = jt_->namenode().num_racks() > 1;
  for (mr::JobId id : order) {
    const auto& js = jt_->job(id);
    if (js.has_local_pending_map(machine)) {
      skip_counts_[id] = 0;
      return id;
    }
    const bool rack_here = racked && js.has_rack_local_pending_map(machine);
    const int needed =
        !racked ? locality_delay_
                : (rack_here ? locality_delay_ : 2 * locality_delay_);
    int& skips = skip_counts_[id];
    if (skips >= needed) {
      skips = 0;
      return id;  // waited long enough: run at the best level available
    }
    ++skips;
    ++locality_waits_;
  }
  return std::nullopt;  // everyone is waiting for a better-placed machine
}

}  // namespace eant::sched
