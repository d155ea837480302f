// Hadoop Capacity Scheduler (referenced in the paper's related work,
// Sec. VII) in two modes:
//
//  * LEGACY (default): the cluster is divided into fixed-fraction queues;
//    jobs map to queues round-robin at submission (a stand-in for per-user
//    queue assignment), within a queue jobs run FIFO, and idle capacity
//    spills over to the busiest queues.  This mode's decision sequence is
//    digest-frozen — fig6b depends on it bit-for-bit.
//
//  * TENANT (TenantShareConfig ctor): the multi-tenant scheduler behind
//    bench/continuous_traffic.  Each tenant owns a queue with a weighted
//    slot share; queues are ranked by occupancy-per-weight (weighted
//    max-min, spill-over automatic), jobs carrying deadlines run EDF ahead
//    of their queue's FIFO backlog, a queue whose earliest deadline is
//    inside a 120 s boost window jumps the ranking entirely, and a
//    periodic sweep preempts the youngest attempts of over-share tenants
//    when an under-share tenant is starving (JobTracker::preempt_attempt —
//    KILLED, not FAILED, wasted work accounted).
//
// Both modes rebuild their job->queue map from the replayed job table at
// master failover (on_master_recovered): the map lived in the dead master's
// memory.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "mapreduce/job_tracker.h"
#include "mapreduce/scheduler.h"
#include "workload/job_spec.h"

namespace eant::sched {

/// One tenant's queue in tenant mode.
struct TenantQueue {
  workload::TenantId tenant = 0;
  std::string name;
  double weight = 1.0;  ///< relative slot share (weighted max-min)
};

/// Tenant-mode configuration.
struct TenantShareConfig {
  std::vector<TenantQueue> tenants;

  /// Preempt over-share tenants' attempts when an under-share tenant
  /// starves (off = shares converge only as tasks finish naturally).
  bool preemption = true;
};

/// Multi-queue capacity scheduling (legacy fixed fractions or per-tenant
/// weighted shares — see the file comment).
class CapacityScheduler final : public mr::Scheduler {
 public:
  /// Legacy mode: three queues guaranteed 50%, 30% and 20% of the slots.
  CapacityScheduler() = default;

  /// Tenant mode: one queue per configured tenant; jobs map to queues by
  /// JobSpec::tenant.  An unknown tenant gets a weight-1.0 queue on first
  /// sight (first-seen order, deterministic).
  explicit CapacityScheduler(TenantShareConfig config);

  void attach(mr::JobTracker& job_tracker) override;
  void on_job_submitted(mr::JobId job) override;
  void on_master_recovered() override;

  /// Brownout: under Saturated/Critical overload the preemption sweep is
  /// paused — killing attempts to fine-tune shares wastes finished work
  /// exactly when slots are scarcest.  EDF and deadline boosting still run.
  void on_overload_state(mr::OverloadState state) override {
    overload_paused_ = state >= mr::OverloadState::kSaturated;
  }
  std::optional<mr::JobId> select_job(cluster::MachineId machine,
                                      mr::TaskKind kind) override;
  std::string name() const override { return "Capacity"; }

  bool tenant_mode() const { return tenant_mode_; }
  std::size_t num_queues() const;

  /// Queue a job was assigned to; throws PreconditionError for a job with
  /// none (never submitted, or gone from the job table a master recovery
  /// replayed).
  std::size_t queue_of(mr::JobId job) const;

  /// Successful preemptions this scheduler initiated (tenant mode only).
  std::size_t preemptions() const { return preemptions_; }

 private:
  /// Fills occ_ with the slots each queue's jobs occupy, in one pass over
  /// the active jobs (select_job used to recount per comparator evaluation
  /// — quadratic in jobs for no change in ranking).
  void occupancy_by_queue();

  std::optional<mr::JobId> select_legacy();
  std::optional<mr::JobId> select_tenant(mr::TaskKind kind);
  std::size_t queue_for_tenant(workload::TenantId tenant);
  /// Maps a job to its tenant's queue, or round-robin in legacy mode.
  void assign_queue(mr::JobId job);
  void preemption_sweep();
  void rebalance_kind(mr::TaskKind kind);

  // Legacy mode.
  std::size_t next_queue_ = 0;

  // Tenant mode.
  bool tenant_mode_ = false;
  TenantShareConfig share_;
  std::vector<TenantQueue> queues_;
  std::map<workload::TenantId, std::size_t> tenant_queue_;
  std::size_t preemptions_ = 0;
  bool overload_paused_ = false;

  /// Queue of each job, indexed by its dense JobId; kNoQueue for a job a
  /// master recovery dropped.
  static constexpr std::size_t kNoQueue = static_cast<std::size_t>(-1);
  std::vector<std::size_t> job_queue_;
  mr::JobTracker* jt_ = nullptr;

  /// select_job's scratch, kept so a slot offer allocates nothing: the
  /// runnable jobs, per-queue occupancy, earliest runnable deadline and
  /// has-runnable flag, and the queue ranking.
  std::vector<mr::JobId> runnable_;
  std::vector<int> occ_;
  std::vector<double> earliest_deadline_;
  std::vector<char> has_runnable_;
  std::vector<std::size_t> order_;
};

}  // namespace eant::sched
