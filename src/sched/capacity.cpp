#include "sched/capacity.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace eant::sched {
namespace {

/// Legacy mode's guaranteed slot fraction of each queue.
constexpr std::array<double, 3> kLegacyCapacities = {0.5, 0.3, 0.2};
static_assert(
    [] {
      double sum = 0.0;
      for (double c : kLegacyCapacities) {
        if (c <= 0.0) return false;
        sum += c;
      }
      return sum > 1.0 - 1e-6 && sum < 1.0 + 1e-6;
    }(),
    "queue capacities must be positive and sum to 1");

/// Tenant mode: period of the preemption sweep, and the attempts it may
/// kill per sweep and kind, fleet-wide (bounds wasted work per round).
constexpr Seconds kPreemptionInterval = 30.0;
constexpr int kMaxPreemptionsPerRound = 2;

/// Tenant mode: a queue whose earliest runnable deadline is closer than
/// this jumps ahead of every non-urgent queue regardless of its share.
constexpr Seconds kDeadlineBoostWindow = 120.0;

/// Stable insertion sort of a queue ranking: the order std::stable_sort
/// gives, without the temporary buffer it allocates on every call.  A
/// ranking holds one entry per queue, a handful.
template <class Less>
void rank_queues(std::vector<std::size_t>& order, Less less) {
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t q = order[i];
    std::size_t j = i;
    for (; j > 0 && less(q, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = q;
  }
}

}  // namespace

CapacityScheduler::CapacityScheduler(TenantShareConfig config)
    : tenant_mode_(true), share_(std::move(config)) {
  for (const TenantQueue& q : share_.tenants) {
    EANT_CHECK(q.weight > 0.0, "tenant weights must be positive");
    EANT_CHECK(tenant_queue_.find(q.tenant) == tenant_queue_.end(),
               "duplicate tenant in TenantShareConfig");
    tenant_queue_[q.tenant] = queues_.size();
    queues_.push_back(q);
  }
}

void CapacityScheduler::attach(mr::JobTracker& job_tracker) {
  jt_ = &job_tracker;
  if (tenant_mode_ && share_.preemption) {
    // Legacy mode schedules nothing here: an extra periodic event would
    // shift event ids and break the frozen fig6b digest.
    jt_->simulator().schedule_periodic(kPreemptionInterval, [this] {
      preemption_sweep();
      return true;
    });
  }
}

std::size_t CapacityScheduler::queue_for_tenant(workload::TenantId tenant) {
  const auto it = tenant_queue_.find(tenant);
  if (it != tenant_queue_.end()) return it->second;
  // Unconfigured tenant: open a default-weight queue in first-seen order
  // (submission order, hence deterministic).
  tenant_queue_[tenant] = queues_.size();
  queues_.push_back(
      TenantQueue{tenant, "tenant-" + std::to_string(tenant), 1.0});
  return queues_.size() - 1;
}

void CapacityScheduler::assign_queue(mr::JobId job) {
  if (job >= job_queue_.size()) job_queue_.resize(job + 1, kNoQueue);
  if (tenant_mode_) {
    // submit_now registers the job before notifying the scheduler, so the
    // spec (and its tenant tag) is already readable.
    job_queue_[job] = queue_for_tenant(jt_->job(job).spec().tenant);
    return;
  }
  job_queue_[job] = next_queue_;
  next_queue_ = (next_queue_ + 1) % kLegacyCapacities.size();
}

void CapacityScheduler::on_job_submitted(mr::JobId job) { assign_queue(job); }

void CapacityScheduler::on_master_recovered() {
  // The job->queue map lived in the dead master's memory.  Rebuild it from
  // the replayed job table in submission order — recover_master replays
  // buffered submissions (which re-enter via on_job_submitted) before this
  // hook runs, so active_jobs() is the complete post-recovery picture.
  std::fill(job_queue_.begin(), job_queue_.end(), kNoQueue);
  next_queue_ = 0;
  for (mr::JobId id : jt_->active_jobs()) assign_queue(id);
}

std::size_t CapacityScheduler::num_queues() const {
  return tenant_mode_ ? queues_.size() : kLegacyCapacities.size();
}

std::size_t CapacityScheduler::queue_of(mr::JobId job) const {
  EANT_CHECK(job < job_queue_.size() && job_queue_[job] != kNoQueue,
             "unknown job");
  return job_queue_[job];
}

void CapacityScheduler::occupancy_by_queue() {
  occ_.assign(num_queues(), 0);
  for (mr::JobId id : jt_->active_jobs()) {
    occ_[queue_of(id)] += jt_->job(id).occupied_slots();
  }
}

std::optional<mr::JobId> CapacityScheduler::select_job(
    cluster::MachineId /*machine*/, mr::TaskKind kind) {
  EANT_CHECK(jt_ != nullptr, "scheduler not attached");
  jt_->runnable_jobs(kind, runnable_);
  if (runnable_.empty()) return std::nullopt;
  return tenant_mode_ ? select_tenant(kind) : select_legacy();
}

std::optional<mr::JobId> CapacityScheduler::select_legacy() {
  // Rank queues by occupancy relative to their guaranteed capacity, most
  // starved first; spill-over is automatic because a queue with no runnable
  // jobs simply never matches, letting the next-ranked queue take the slot.
  const double total_slots = static_cast<double>(jt_->total_slots());
  occupancy_by_queue();
  order_.resize(kLegacyCapacities.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  rank_queues(order_, [&](std::size_t a, std::size_t b) {
    const double ra = occ_[a] / (kLegacyCapacities[a] * total_slots);
    const double rb = occ_[b] / (kLegacyCapacities[b] * total_slots);
    return ra < rb;
  });

  for (std::size_t q : order_) {
    // FIFO within the queue: runnable_jobs() is in submission order.
    for (mr::JobId id : runnable_) {
      if (queue_of(id) == q) return id;
    }
  }
  return std::nullopt;
}

std::optional<mr::JobId> CapacityScheduler::select_tenant(mr::TaskKind kind) {
  const Seconds now = jt_->simulator().now();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // One pass over the active jobs: per-queue kind occupancy; one pass over
  // the runnable jobs: earliest runnable deadline per queue.
  occ_.assign(queues_.size(), 0);
  for (mr::JobId id : jt_->active_jobs()) {
    occ_[queue_of(id)] += static_cast<int>(jt_->job(id).running(kind));
  }
  earliest_deadline_.assign(queues_.size(), kInf);
  has_runnable_.assign(queues_.size(), 0);
  for (mr::JobId id : runnable_) {
    const std::size_t q = queue_of(id);
    has_runnable_[q] = 1;
    const workload::JobSpec& spec = jt_->job(id).spec();
    if (spec.has_deadline() && spec.deadline < earliest_deadline_[q]) {
      earliest_deadline_[q] = spec.deadline;
    }
  }

  // Weighted max-min ranking: most starved queue (lowest occupied slots per
  // unit weight) first; a queue with an imminent deadline jumps the whole
  // ranking, earlier deadline first.
  order_.clear();
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (has_runnable_[q]) order_.push_back(q);
  }
  const auto urgent = [&](std::size_t q) {
    return earliest_deadline_[q] < now + kDeadlineBoostWindow;
  };
  rank_queues(order_, [&](std::size_t a, std::size_t b) {
    const bool ua = urgent(a);
    const bool ub = urgent(b);
    if (ua && !ub) return true;
    if (ub && !ua) return false;
    if (ua && ub) {
      if (earliest_deadline_[a] < earliest_deadline_[b]) return true;
      if (earliest_deadline_[b] < earliest_deadline_[a]) return false;
    }
    const double ra = occ_[a] / queues_[a].weight;
    const double rb = occ_[b] / queues_[b].weight;
    return ra < rb;
  });

  for (std::size_t q : order_) {
    // EDF ahead of the queue's FIFO backlog: the earliest-deadline runnable
    // job wins; without deadline candidates, submission order (runnable
    // order) decides.
    std::optional<mr::JobId> edf;
    double edf_deadline = kInf;
    std::optional<mr::JobId> fifo;
    for (mr::JobId id : runnable_) {
      if (queue_of(id) != q) continue;
      const workload::JobSpec& spec = jt_->job(id).spec();
      if (spec.has_deadline()) {
        if (spec.deadline < edf_deadline) {
          edf_deadline = spec.deadline;
          edf = id;
        }
      } else if (!fifo) {
        fifo = id;
      }
    }
    if (edf) return edf;
    if (fifo) return fifo;
  }
  return std::nullopt;
}

void CapacityScheduler::preemption_sweep() {
  // The sweep runs inside the master process: while it is down (or before
  // trackers exist) nothing rebalances.
  if (jt_ == nullptr || !jt_->master_up() || overload_paused_) return;
  rebalance_kind(mr::TaskKind::kMap);
  rebalance_kind(mr::TaskKind::kReduce);
}

void CapacityScheduler::rebalance_kind(mr::TaskKind kind) {
  // Preemption is a last resort: with free slots of the kind anywhere, the
  // starved queue gets them at the next heartbeat without killing work.
  if (queues_.empty()) return;
  if (jt_->total_free_slots(kind) > 0) return;

  const std::size_t nq = queues_.size();
  std::vector<int> occ(nq, 0);
  std::vector<int> pending(nq, 0);
  for (mr::JobId id : jt_->active_jobs()) {
    const mr::JobState& js = jt_->job(id);
    const std::size_t q = queue_of(id);
    occ[q] += static_cast<int>(js.running(kind));
    pending[q] += static_cast<int>(js.pending(kind));
  }

  // Weighted max-min shares over the demanding queues only: an idle tenant
  // cedes its share, it does not strand slots.
  int pool = 0;
  double demand_weight = 0.0;
  for (std::size_t q = 0; q < nq; ++q) {
    pool += occ[q];
    if (occ[q] > 0 || pending[q] > 0) demand_weight += queues_[q].weight;
  }
  if (pool == 0 || demand_weight <= 0.0) return;

  std::vector<double> share(nq, 0.0);
  int deficit = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    if (occ[q] == 0 && pending[q] == 0) continue;
    share[q] = queues_[q].weight / demand_weight * pool;
    if (pending[q] > 0 && occ[q] + 1 <= share[q] + 1e-9) {
      // A whole slot (or more) below fair share with work waiting.
      deficit += static_cast<int>(share[q] + 1e-9) - occ[q];
    }
  }
  if (deficit == 0) return;
  int budget = std::min(deficit, kMaxPreemptionsPerRound);

  // Victims: running tasks of over-share queues, youngest attempt first
  // (least work wasted), never driving a queue below its own share.
  struct Victim {
    Seconds start = 0.0;
    mr::JobId job = 0;
    mr::TaskIndex index = 0;
    std::size_t queue = 0;
  };
  const auto above_share_after_kill = [&](std::size_t q) {
    return static_cast<double>(occ[q] - 1) >= share[q] - 1e-9;
  };
  std::vector<Victim> victims;
  for (mr::JobId id : jt_->active_jobs()) {
    const std::size_t q = queue_of(id);
    if (!above_share_after_kill(q)) continue;
    const mr::JobState& js = jt_->job(id);
    const std::size_t total =
        kind == mr::TaskKind::kMap ? js.num_maps() : js.num_reduces();
    for (mr::TaskIndex i = 0; i < total; ++i) {
      if (js.status(kind, i) != mr::TaskStatus::kRunning) continue;
      victims.push_back(Victim{js.task_start_time(kind, i), id, i, q});
    }
  }
  std::stable_sort(victims.begin(), victims.end(),
                   [](const Victim& a, const Victim& b) {
                     if (b.start < a.start) return true;  // youngest first
                     if (a.start < b.start) return false;
                     if (a.job < b.job) return true;
                     if (b.job < a.job) return false;
                     return a.index < b.index;
                   });

  for (const Victim& v : victims) {
    if (budget <= 0) break;
    if (!above_share_after_kill(v.queue)) continue;
    if (jt_->preempt_attempt(v.job, kind, v.index) == 0) continue;
    --occ[v.queue];
    --budget;
    ++preemptions_;
  }
}

}  // namespace eant::sched
