// InvariantAuditor: the runtime-optional checking layer that keeps the
// simulator honest as it grows.
//
// The paper's results (Figs. 6-13) are only as good as the simulator's
// bookkeeping, so the auditor re-derives the critical quantities through an
// independent path and compares:
//
//  * energy conservation — a second integral of P_idle + alpha * u(t) per
//    machine, driven purely by observed demand/power-state changes, must
//    match the Machine's own exact integral at end of run;
//  * slot capacity — the attempts observed running on a machine never exceed
//    its map/reduce slots;
//  * flow byte conservation — bytes credited to a flow when it finishes must
//    equal the bytes requested at start;
//  * task-attempt legality — every observed lifecycle event is checked
//    against an explicit transition table covering the retry/expiry/crash
//    paths (launch only from pending or as the one speculative twin, finish
//    and kill only while running, revert only from done, ...);
//  * event-time sanity — executed events never move the clock backwards and
//    nothing is scheduled in the past (heap causality).
//
// Alongside the checks, the auditor folds every observation into an FNV-1a
// determinism digest (digest.h): two runs of the same RunConfig + seed must
// produce bit-identical digests, and any nondeterminism anywhere in the
// event loop, the RNG consumption order, the flow model or the task
// lifecycle shows up as a digest mismatch in tests and CI.
//
// All hooks are raw-pointer taps (`if (auditor) auditor->...`) so a
// non-audited run pays one branch per hook; auditing is enabled per run via
// exp::RunConfig::audit or globally via the EANT_AUDIT environment variable.
// Violations aggregate into an AuditReport; with
// AuditConfig::abort_on_violation they throw InvariantError at the first
// offence instead (the EANT_CHECK-style fail-fast mode).
//
// Layering: the auditor only depends on sim/cluster/net observer interfaces
// and plain integer task identifiers — mapreduce and core call *into* it,
// never the other way around, so eant_audit sits below eant_mapreduce in the
// library graph.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/digest.h"
#include "audit/report.h"
#include "cluster/cluster.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace eant::audit {

/// Auditor tunables.
struct AuditConfig {
  /// Master switch consulted by the Run harness (the EANT_AUDIT environment
  /// variable overrides a false here).
  bool enabled = false;

  /// Throw InvariantError at the first violation instead of aggregating.
  bool abort_on_violation = false;
};

/// True iff the EANT_AUDIT environment variable requests auditing
/// (1/on/true/yes, case-insensitive) — how CI turns auditing on for the
/// whole test suite without touching code.
bool audit_env_enabled();

/// Record types mixed into the determinism digest.  Values are part of the
/// digest definition — append only, never renumber.
enum class Record : std::uint32_t {
  kSimEvent = 1,     ///< an event executed (entity = event id)
  kTaskLaunch = 2,   ///< attempt occupied a slot
  kTaskFinish = 3,
  kTaskFail = 4,     ///< transient attempt failure
  kTaskKill = 5,     ///< attempt cancelled / died with its machine
  kTaskRevert = 6,   ///< completed map reverted after node loss
  kJobSubmit = 7,
  kJobFinish = 8,
  kFlowStart = 9,
  kFlowFinish = 10,
  kFlowAbort = 11,
  kMachinePower = 12,  ///< power state flip (entity = machine id * 2 + up)
  kDemand = 13,        ///< hosted CPU demand changed (entity = demand bits)
  kControlTick = 14,   ///< E-Ant control interval boundary
  kLinkState = 15,     ///< link capacity factor changed (entity = link+factor)
  kReplicaChange = 16, ///< HDFS replica re-replicated (entity = block+target)
  kDataLoss = 17,      ///< all replicas of a block died (entity = block id)
  kFetchFailure = 18,  ///< shuffle fetch failed (entity = job+source bits)
  kPerfState = 19,     ///< machine perf factors changed (entity = id+factor bits)
  kMasterCrash = 20,   ///< control-plane daemon died (entity = 0 JT, 1 NN)
  kMasterRecover = 21, ///< control-plane daemon restarted (entity = 0 JT, 1 NN)
  kCheckpoint = 22,    ///< JobTracker edit-log checkpoint committed
  kEpoch = 23,         ///< master epoch advanced (entity = new epoch)
  kOrphanCommit = 24,  ///< orphaned attempt committed from checkpoint replay
  kOrphanRequeue = 25, ///< orphaned attempt discarded and requeued
  kPreempt = 26,       ///< attempt killed to rebalance tenant slot shares
  kOverloadState = 27, ///< overload detector transition (entity = new state)
  kJobReject = 28,     ///< admission rejected a submission
                       ///< (entity = tenant << 2 | verdict)
  kJobRetry = 29,      ///< rejected job scheduled a backoff retry
                       ///< (entity = tenant)
  kCorruptionDetected = 30,  ///< corrupt replica / payload / output confirmed
                             ///< (entity = block or job + node bits)
  kScrub = 31,               ///< scrubber tick scanned (entity = replica count)
  kRepair = 32,              ///< corrupt-block detection settled by a completed
                             ///< re-replication (entity = block + target bits)
};

/// Task-attempt lifecycle events checked against the transition table.
/// kOrphanCommit / kOrphanRequeue are the failover-recovery resolutions of
/// an attempt that outlived its master: commit behaves like a finish (the
/// work counts once), requeue like a kill (the work is wasted).
enum class TaskEvent {
  kLaunch,
  kFinish,
  kFail,
  kKill,
  kRevertDone,
  kOrphanCommit,
  kOrphanRequeue,
};

/// The checking layer.  Construct, wire via attach_* / set_auditor calls,
/// run the simulation, then finalize() for the report.
class InvariantAuditor final : public sim::SimObserver,
                               public cluster::MachineObserver,
                               public net::FabricObserver {
 public:
  explicit InvariantAuditor(sim::Simulator& sim, AuditConfig config = {});

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // --- wiring -----------------------------------------------------------------

  /// Registers as each machine's observer and snapshots slot limits and
  /// power models for the energy / slot checks.  Call once, after the
  /// cluster is fully built and before any task runs.
  void attach_cluster(cluster::Cluster& cluster);

  /// Registers as the fabric's flow observer and remembers the fabric for
  /// the end-of-run byte-conservation cross-check.
  void attach_fabric(net::Fabric& fabric);

  // --- sim::SimObserver -------------------------------------------------------

  void on_event_scheduled(Seconds t, sim::EventId id) override;
  void on_event_executed(Seconds t, sim::EventId id) override;

  // --- cluster::MachineObserver -----------------------------------------------

  void on_machine_state(cluster::MachineId id, Seconds now,
                        double demand_cores, bool up) override;

  // --- net::FabricObserver ----------------------------------------------------

  void on_flow_started(net::FlowId id, net::TransferClass cls,
                       Megabytes total_mb) override;
  void on_flow_finished(net::FlowId id, Megabytes requested_mb,
                        Megabytes delivered_mb) override;
  void on_flow_aborted(net::FlowId id, Megabytes requested_mb,
                       Megabytes delivered_mb) override;
  void on_link_state(net::LinkId link, double factor) override;

  // --- task lifecycle (JobTracker / TaskTracker hooks) ------------------------

  /// Feeds one attempt-lifecycle event through the transition table and the
  /// slot-capacity check.  `job`/`index` identify the task, `is_map` its
  /// kind, `machine` where the event happened.
  void on_task_transition(std::uint64_t job, bool is_map, std::uint64_t index,
                          TaskEvent event, cluster::MachineId machine);

  /// Observes a master-epoch advance (JobTracker recovery).  Epochs must be
  /// strictly increasing — a stale or repeated epoch means fencing is broken
  /// and stale heartbeats could be double-applied.
  void on_master_epoch(std::uint64_t epoch);

  // --- generic hooks (higher layers without a dedicated interface) ------------

  /// Mixes one record into the determinism digest.
  void record(Record type, std::uint64_t entity);

  /// Checks value in [lo, hi] (and finite); context names the checked thing.
  void check_in_range(const char* check, double value, double lo, double hi,
                      const std::string& context);

  /// Reports a violation of the named check (aggregated per check id; in
  /// abort mode throws InvariantError immediately).
  void report_violation(const char* check, Severity severity,
                        const std::string& context);

  // --- results ----------------------------------------------------------------

  /// Runs the end-of-run conservation checks (energy cross-check per
  /// machine) and returns the aggregated report.  Idempotent per run; call
  /// after the workload completed.
  AuditReport finalize();

  /// The digest accumulated so far (finalize() reports the same value).
  std::uint64_t digest() const { return digest_.value(); }
  std::uint64_t digest_records() const { return digest_records_; }

  /// Violations recorded so far across all checks.
  std::size_t violations() const;

 private:
  struct MachineAudit {
    // Snapshot of the power model (idle + slope) and slot limits.
    Watts idle_power = 0.0;
    Watts alpha = 0.0;
    int cores = 1;
    int map_slots = 0;
    int reduce_slots = 0;
    // Independent integration state.
    Seconds last_time = 0.0;
    double demand_cores = 0.0;
    bool up = true;
    Joules energy = 0.0;
    // Attempts currently observed running (slot-capacity check).
    int running_maps = 0;
    int running_reduces = 0;
  };

  struct TaskAudit {
    /// Committed (kFinish or kOrphanCommit) and not reverted since: a second
    /// commit would count the task's work, and energy, twice.
    bool done = false;
    int attempts_running = 0;
  };

  /// Advances a machine's independent energy integral to `now`.
  void integrate(MachineAudit& m, Seconds now);

  /// The task's lifecycle state, growing the table to reach it.
  TaskAudit& task_audit(std::uint64_t job, bool is_map, std::uint64_t index);

  sim::Simulator& sim_;
  AuditConfig config_;
  cluster::Cluster* cluster_ = nullptr;
  const net::Fabric* fabric_ = nullptr;

  Fnv1a digest_;
  std::uint64_t digest_records_ = 0;

  // Fabric byte-conservation ledger: what finished flows requested plus what
  // aborted/failed flows actually delivered must match the fabric's own
  // per-class byte accounting at finalize (open flows add an in-flight
  // allowance).
  Megabytes finished_requested_mb_ = 0.0;
  Megabytes aborted_delivered_mb_ = 0.0;

  Seconds last_executed_ = 0.0;
  std::vector<MachineAudit> machines_;
  // Lifecycle state per task, indexed [job][kind, map first][index] and
  // grown on demand: the JobTracker issues job and task ids densely from 0.
  std::vector<std::array<std::vector<TaskAudit>, 2>> tasks_;
  std::map<net::FlowId, Megabytes> open_flows_;

  std::uint64_t last_epoch_ = 0;

  std::map<std::string, Violation> violations_;
};

}  // namespace eant::audit
