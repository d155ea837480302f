// Hadoop Fair Scheduler (single pool, equal min-shares) — the paper's first
// baseline (Sec. VI).  Each active job's fair share is total_slots / #jobs;
// the job furthest below its share (smallest occupied/share ratio) receives
// the next slot.  Heterogeneity-oblivious by construction: it never looks at
// machine characteristics.

#pragma once

#include <map>

#include "mapreduce/job_tracker.h"
#include "mapreduce/scheduler.h"

namespace eant::sched {

/// Deficit-based fair sharing across active jobs, with optional delay
/// scheduling (Zaharia et al., EuroSys'10): a head-of-line job without
/// node-local data on the offering machine is skipped a bounded number of
/// times, waiting for a machine that holds one of its splits.
class FairScheduler : public mr::Scheduler {
 public:
  /// `locality_delay` is the number of times a job may be skipped for
  /// lacking local data before it runs non-locally anyway; 0 disables
  /// delay scheduling (plain Hadoop Fair Scheduler).
  explicit FairScheduler(int locality_delay = 0);

  void attach(mr::JobTracker& job_tracker) override { jt_ = &job_tracker; }

  std::optional<mr::JobId> select_job(cluster::MachineId machine,
                                      mr::TaskKind kind) override;

  /// Brownout: under Saturated/Critical overload the locality wait is a
  /// luxury — holding slots idle for better placement only deepens the
  /// backlog — so delay scheduling is suspended until the detector decays
  /// back below Saturated.
  void on_overload_state(mr::OverloadState state) override {
    overload_relaxed_ = state >= mr::OverloadState::kSaturated;
  }

  std::string name() const override { return "Fair"; }

  /// Number of times delay scheduling held a job back (observability).
  std::size_t locality_waits() const { return locality_waits_; }

 protected:
  /// Runnable jobs ordered most-starved-first (the fair-share ordering);
  /// shared with the schedulers that refine Fair's choice (Tarazu, LATE).
  /// The result lives in a buffer the next call overwrites.
  const std::vector<mr::JobId>& fair_order(mr::TaskKind kind);

  mr::JobTracker* jt_ = nullptr;

 private:
  int locality_delay_;
  std::map<mr::JobId, int> skip_counts_;
  std::size_t locality_waits_ = 0;
  bool overload_relaxed_ = false;
  std::vector<mr::JobId> order_;  ///< fair_order's buffer
};

}  // namespace eant::sched
