// JobTracker: master daemon of the simulated Hadoop cluster.
//
// Holds job state, reacts to TaskTracker heartbeats by asking the pluggable
// Scheduler which job should receive each free slot, computes task runtimes
// from machine characteristics (including remote-read and shuffle costs) and
// drives the job lifecycle (maps -> shuffle/reduce gating -> completion).
//
// Fault tolerance follows Hadoop 1.x: a crashed tracker is detected only by
// heartbeat silence (tracker expiry); its running attempts AND the completed
// map outputs of in-flight jobs are re-queued, because map outputs live on
// the dead node's local disk while reduce outputs are HDFS-replicated.
// Transient attempt failures count toward a per-task max_attempts budget
// (exhaustion fails the job) and a per-tracker blacklist threshold.

#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/locality.h"
#include "hdfs/namenode.h"
#include "mapreduce/admission.h"
#include "mapreduce/job.h"
#include "mapreduce/noise.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/task_tracker.h"
#include "net/fabric.h"
#include "workload/job_spec.h"

namespace eant::audit {
class InvariantAuditor;
}

namespace eant::mr {

/// TaskTracker heartbeat / utilisation sampling period (Hadoop default).
constexpr Seconds kHeartbeatInterval = 3.0;

/// Effective per-reduce shuffle bandwidth, MB/s (many small fetches over the
/// shared network, far below NIC line rate).  Without a fabric the shuffle
/// takes this fixed scalar regardless of how many transfers share the wire;
/// with one it only sizes the flows' rate caps, so link contention decides.
constexpr double kShuffleMbps = 20.0;

/// A task is a straggler once its elapsed time exceeds this multiple of the
/// mean completed-task duration of its job and kind: the JobTracker's own
/// speculation and LATE's both use it.
constexpr double kStragglerBeta = 1.5;

/// Tunables of the MapReduce engine (defaults follow the paper's setup).
struct JobTrackerConfig {
  /// Hadoop's default speculative execution (on in the paper's stock
  /// 1.2.1 setup): when a machine has a free slot and no pending work, a
  /// straggling attempt may be duplicated there; the first to finish wins.
  bool speculative_execution = true;

  /// Hardened speculation: rank straggler candidates by estimated remaining
  /// time derived from their observed progress rate (LATE's heuristic)
  /// instead of raw elapsed-over-mean, and require the speculating machine
  /// to beat that remaining time.  Off by default — flipping it changes
  /// scheduling decisions and therefore digests.
  bool speculative_progress_ranking = false;

  /// Cap on concurrent speculative duplicates whose *original* attempt runs
  /// on the same node — stops a limping machine from eating the fleet's
  /// slots with clones before quarantine confirms it.  0 = unlimited
  /// (stock Hadoop behaviour).
  int max_speculative_per_node = 0;

  /// When set, every map task is forced local (true) or remote (false),
  /// overriding real block placement — used by the Fig. 6 experiment to
  /// control the data-locality percentage directly.
  std::function<bool(const TaskSpec&, cluster::MachineId)> locality_override;

  // --- fault tolerance --------------------------------------------------------

  /// A tracker that has not heartbeat for this long is declared lost and its
  /// work re-queued (Hadoop's mapred.tasktracker.expiry.interval, 10 min).
  /// 0 disables loss detection.
  Seconds tracker_expiry_window = 600.0;

  /// A task whose attempt fails this many times fails its whole job
  /// (Hadoop's mapred.map/reduce.max.attempts).  Attempts killed by node
  /// loss do not count — Hadoop distinguishes KILLED from FAILED.
  int max_attempts = 4;

  /// A tracker accumulating this many attempt failures is blacklisted —
  /// no new work until `blacklist_duration` passes.  0 disables.
  int blacklist_threshold = 4;

  /// How long a blacklisted tracker sits out before its failure count is
  /// forgiven.
  Seconds blacklist_duration = 3600.0;

  /// Every this many seconds each tracker's attempt-failure counter halves
  /// (Hadoop-style fault forgiveness); a blacklisted tracker whose decayed
  /// count drops below the threshold re-earns work without waiting out the
  /// full blacklist_duration.  0 disables decay (pre-decay behaviour:
  /// blacklisting is permanent until the duration lapses).
  Seconds blacklist_decay_window = 600.0;

  // --- fail-slow (gray failure) detection --------------------------------------

  /// EWMA weight of each heartbeat's mean progress-rate sample in the
  /// per-node health score (1.0 = healthy full-speed progress).
  double health_ewma_alpha = 0.25;

  /// A node whose health EWMA drops below this is quarantined: it keeps
  /// heartbeating (it is NOT dead) but receives no new work until its health
  /// climbs back above 0.75, a hysteresis this entry threshold must not
  /// exceed — the gray-failure analogue of blacklisting.  0 disables
  /// fail-slow detection entirely.  Safe to leave on: a healthy machine's
  /// progress rate is exactly 1.0, so the score never moves fault-free.
  double quarantine_threshold = 0.55;

  /// Heartbeats carrying progress samples required before the health score
  /// is trusted enough to quarantine (guards against one noisy window).
  int health_min_samples = 4;

  /// Every this many seconds a quarantined node's health heals halfway back
  /// toward 1.0 (mirrors blacklist decay) so a repaired limper is retried
  /// even when it holds no tasks to prove itself with.  0 disables decay.
  Seconds quarantine_decay_window = 600.0;

  // --- control-plane fault tolerance -------------------------------------------

  /// Period of the JobTracker's edit-log checkpoint of its in-flight attempt
  /// table.  Job submissions and task completions are synchronously durable
  /// regardless; only knowledge of *running* attempts is bounded by the last
  /// committed checkpoint.  0 (the default) disables checkpointing entirely —
  /// a restarted master then recovers with full amnesia over in-flight
  /// attempts, and, crucially, the fault-free event stream is bit-identical
  /// to the pre-failover engine.
  Seconds checkpoint_interval = 0.0;

  /// Seconds between starting a checkpoint write and it becoming durable.  A
  /// master crash mid-write falls back to the previous committed checkpoint.
  Seconds checkpoint_write_cost = 5.0;

  /// Window over which the fleet's re-registration is spread after a master
  /// restart (in machine-id order) — the throttle that keeps the restarted
  /// master from absorbing every tracker's status report in one instant.
  /// Heartbeats arriving before a tracker's gate are fenced as stale.
  Seconds reregistration_window = 30.0;

  // --- data integrity -----------------------------------------------------------

  /// Period of the background replica scrubber (Hadoop's DataBlockScanner).
  /// Each tick scans up to scrub_mbps * scrub_period megabytes of replicas,
  /// resuming from a persistent cursor in block order, and feeds every
  /// checksum mismatch it confirms into the re-replication queue.  0 (the
  /// default) disables scrubbing: no event is scheduled and the event stream
  /// is bit-identical to the pre-scrubber engine.
  Seconds scrub_period = 0.0;

  /// Byte budget of one scrub tick, expressed as a rate (Hadoop's
  /// dfs.datanode.scan.period throttling analogue).  Replicas are scanned
  /// whole, so a tick may overshoot by at most one block.
  double scrub_mbps = 20.0;

  /// End-to-end verification of map output: re-check the output checksum
  /// when a map attempt reports completion, so corruption *produced* by a
  /// limping machine (not just stored corruption) is caught before the
  /// result commits.  A corrupt output is charged like an attempt failure
  /// and the map re-executes.  Needs the Run harness's task-output
  /// corruption hook; off by default.
  bool verify_task_output = false;

  // --- overload protection ------------------------------------------------------

  /// Admission control, backpressure and brownout (admission.h).  Inert by
  /// default: with enabled = false no detector events are scheduled, no RNG
  /// is consumed and every submission is admitted — digests are bit-identical
  /// to the pre-admission engine.
  AdmissionConfig admission;

  // --- scheduler-cost attribution ----------------------------------------------

  /// Measure wall-clock time spent inside Scheduler::select_job: the
  /// per-heartbeat scheduler-work attribution of bench/perf_smoke and the
  /// sched.select_s layer of perfbench's traced mode (--trace 1).  Off by
  /// default: the flag never changes simulation results, but the timing
  /// calls cost a few nanoseconds per slot offer.
  bool measure_scheduler_time = false;
};

/// Why a piece of completed-or-partial work was thrown away — tags the
/// wasted-work reports delivered to the waste listener.
enum class WasteReason {
  kCrashKilled,    ///< attempt died with its machine
  kAttemptFailed,  ///< transient task failure
  kLostMapOutput,  ///< completed map re-run because its output died with a node
  kJobFailed,      ///< attempts killed when their job ran out of retries
  kFetchFailed,    ///< completed map re-run because its output was unreachable
  kOrphaned,       ///< work discarded because the restarted master forgot it
  kPreempted,      ///< attempt killed to rebalance tenant slot shares
  kCorruption,     ///< work redone because its input or output was corrupt
};

/// The JobTracker's run counters.  The JobTracker bumps them in place and
/// exp::RunMetrics derives from this struct, so adding a counter is one
/// documented field here plus its increment.
struct JobTrackerCounters {
  // --- attempts ---------------------------------------------------------------

  /// Attempts killed rather than failed: with a crashed machine, when their
  /// input became unreachable, as a restarted master's unrecorded orphans,
  /// or by preemption.
  std::size_t killed_attempts = 0;
  std::size_t failed_attempts = 0;  ///< transient attempt failures
  /// Attempts killed by scheduler preemption (subset of killed_attempts).
  std::size_t preempted_attempts = 0;
  /// Speculative twins launched, by the JobTracker's own straggler scan or
  /// by a scheduler (LATE) through start_speculative().
  std::size_t speculative_launches = 0;
  /// Completed maps re-executed because their output died with a node.
  std::size_t lost_map_outputs = 0;
  /// Task-seconds of work thrown away (killed, failed and re-run attempts).
  double wasted_task_seconds = 0.0;
  std::size_t quarantine_episodes = 0;  ///< times any node entered quarantine

  // --- degraded mode ----------------------------------------------------------

  /// Flows restarted from a different source because theirs crashed.
  std::size_t retransferred_flows = 0;
  /// Shuffle fetches that failed mid-flight (link fault, partition, or
  /// injected transient fetch error).
  std::size_t fetch_failures = 0;
  /// Completed maps re-executed via the fetch-failure mechanism (their
  /// output was unreachable three times).
  std::size_t fetch_reexecuted_maps = 0;
  /// Reduce attempts that FAILED after exhausting their fetch budget — the
  /// escape hatch that turns a hopeless shuffle into a loud job failure
  /// instead of a livelock.
  std::size_t fetch_aborted_attempts = 0;
  /// Blocks restored to full replication after a datanode loss.
  std::size_t rereplicated_blocks = 0;
  Megabytes rereplication_mb = 0.0;  ///< bytes moved by re-replication
  /// Blocks whose last replica died (each one recorded, never silent).
  std::size_t data_loss_events = 0;

  // --- data integrity ---------------------------------------------------------

  /// Replica corruptions injected (strikes on a live, still-clean replica).
  std::size_t corruptions_injected = 0;
  /// Corrupt replicas confirmed by a checksummed read or the scrubber.
  std::size_t corruptions_detected = 0;
  /// Confirmed-corrupt replicas restored through the re-replication queue.
  std::size_t corruptions_repaired = 0;
  /// Detections that ended in corrupt-block loss (no clean replica left, or
  /// the block died before its repair could run).
  std::size_t corruptions_lost = 0;
  /// Injected corruptions never detected (set by finalize_corruption).
  std::size_t corruptions_latent = 0;
  /// Reads that failed over past at least one corrupt replica.
  std::size_t corrupt_read_failovers = 0;
  /// Shuffle fetches whose payload failed verification (each one also counts
  /// as a fetch failure).
  std::size_t shuffle_corruptions = 0;
  /// Map completions rejected by end-to-end output verification.
  std::size_t task_output_corruptions = 0;
  Megabytes scrubbed_mb = 0.0;  ///< bytes scanned by the background scrubber
  /// Scrub ticks that actually scanned (master + NameNode up, not browned
  /// out).
  std::size_t scrub_passes = 0;

  // --- control plane ----------------------------------------------------------

  /// Control-plane (JobTracker + NameNode) process deaths observed.
  std::size_t master_crashes = 0;
  std::size_t checkpoints_written = 0;  ///< committed edit-log checkpoints
  /// Recoveries that replayed a non-empty checkpointed attempt table.
  std::size_t checkpoint_replays = 0;
  /// Heartbeats rejected for a down master, a stale epoch or a closed
  /// re-registration gate.
  std::size_t fenced_heartbeats = 0;
  /// Completion/failure reports buffered as orphans instead of applied.
  std::size_t fenced_completions = 0;
  /// Orphaned attempts committed from checkpoint coverage at re-registration.
  std::size_t orphans_committed = 0;
  /// Orphaned attempts discarded and requeued (uncovered, or their node
  /// died before re-registering).
  std::size_t orphans_requeued = 0;
};

/// Master node: job admission, heartbeat-driven assignment, lifecycle.
class JobTracker {
 public:
  JobTracker(sim::Simulator& sim, cluster::Cluster& cluster,
             hdfs::NameNode& namenode, Scheduler& scheduler,
             NoiseModel& noise, JobTrackerConfig config = {});

  ~JobTracker();

  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  /// Creates one TaskTracker per cluster machine (slots from the machine
  /// type).  Must be called exactly once, before any submission.
  void start_trackers();

  /// Routes shuffle fetches, remote split reads and output replication
  /// through the network fabric instead of the scalar-bandwidth formulas.
  /// The fabric must outlive the JobTracker and agree on the machine count.
  void attach_fabric(net::Fabric& fabric);

  /// Non-null once attach_fabric() was called.
  net::Fabric* fabric() { return fabric_; }

  TaskTracker& tracker(cluster::MachineId id);

  /// Submits a job immediately; returns its id.
  JobId submit_now(workload::JobSpec spec);

  /// Schedules submission at spec.submit_time (absolute sim time).
  void submit(workload::JobSpec spec);

  /// Schedules a whole workload.
  void submit_all(const std::vector<workload::JobSpec>& specs);

  // --- TaskTracker callbacks --------------------------------------------------

  void handle_heartbeat(TaskTracker& tracker);
  void handle_completion(TaskReport report);

  /// Re-reads one machine's free slots into the fleet-wide free-slot totals
  /// and the free-machine sets (0 while the tracker is unavailable).  Called
  /// wherever a slot count or a tracker's liveness changes, and by suspend
  /// and lift.
  void refresh_free_slots(cluster::MachineId machine);

  /// True iff a report from this tracker would be applied live rather than
  /// fenced into the orphan buffer (master up + current registration epoch).
  /// The TaskTracker consults this to decide whether its completion/failure
  /// audit event fires now or at orphan resolution.
  bool accepts_reports(cluster::MachineId machine) const {
    return master_up_ && tracker_epoch_[machine] == master_epoch_;
  }

  /// A running attempt died of a transient fault (injected via the attempt
  /// fault hook).  Counts toward the task's max_attempts and the tracker's
  /// blacklist threshold; the task re-queues unless its job runs dry.
  void handle_task_failure(TaskReport report);

  /// Called by a crashing TaskTracker with the partial-work reports of its
  /// killed attempts.  Accounting + deferred-requeue bookkeeping only: the
  /// protocol reaction (re-queueing, scheduler notification) waits until the
  /// loss is *detected* — heartbeat expiry or the tracker's rejoin —
  /// mirroring real Hadoop, where a dead node is just silence.
  void record_crash_casualties(cluster::MachineId machine,
                               std::vector<TaskReport> killed);

  /// Launches a duplicate attempt of a Running task on the given tracker
  /// (LATE-style speculation).  The first attempt to finish wins; the twin
  /// is killed.  Returns false when the task is no longer running, already
  /// speculated, or the tracker has no free slot.
  bool start_speculative(JobId job, TaskKind kind, TaskIndex index,
                         TaskTracker& tracker);

  /// A speculation candidate: task `index` of job `job`.
  struct Straggler {
    JobId job = 0;
    TaskIndex index = 0;
  };

  /// Scores one straggler of the queried kind from its job, index, elapsed
  /// time and the job's mean completed duration; nothing skips the task.
  using StragglerScore = std::function<std::optional<Seconds>(
      const JobState& job, TaskKind kind, TaskIndex index, Seconds elapsed,
      Seconds mean)>;

  /// The highest-scoring straggler of the kind across active jobs: a
  /// Running task without a speculative twin, elapsed past kStragglerBeta x
  /// its job's mean completed duration, with a positive score.  Ties go to
  /// the earliest active job, then the lowest task index.  Each job's
  /// straggler index is walked oldest-first and the walk stops at the first
  /// task within the threshold: every younger task is within it too.  Before
  /// the kind's straggler horizon no task is past it, and the call returns
  /// at once.
  std::optional<Straggler> find_straggler(TaskKind kind,
                                          const StragglerScore& score) const;

  /// Scheduler-requested preemption of a Running task: every live attempt
  /// (original + speculative twin) is killed — KILLED, not FAILED, so no
  /// attempt budget is charged — its partial work reported as
  /// WasteReason::kPreempted, and the task re-queued for a later slot (the
  /// PR-1 re-queue machinery).  Returns the number of attempts killed
  /// (0 when the task was not running or the master is down).
  std::size_t preempt_attempt(JobId job, TaskKind kind, TaskIndex index);

  // --- queries (schedulers, experiments, tests) --------------------------------

  const JobState& job(JobId id) const;
  std::size_t num_jobs() const { return jobs_.size(); }

  /// Jobs that are submitted and not yet complete, in submission order.
  const std::vector<JobId>& active_jobs() const { return active_; }

  /// Writes the active jobs with at least one pending task of the kind to
  /// `out` (cleared first), in submission order.  Returns at once when no
  /// task of the kind is pending.  Schedulers pass a buffer they keep, so a
  /// heartbeat allocates nothing here.
  void runnable_jobs(TaskKind kind, std::vector<JobId>& out) const;

  /// Total slots in the cluster (S_pool of Eq. 7, single-user system).
  int total_slots() const;

  /// Currently free slots of the kind over available trackers, fleet-wide
  /// (a kept total).
  int total_free_slots(TaskKind kind) const;

  /// The available machines with a free slot of the kind, in no particular
  /// order (a kept set).
  const std::vector<cluster::MachineId>& free_machines(TaskKind kind) const;

  /// Pending tasks of the kind across active jobs (reduces only counted
  /// once schedulable; a kept total).
  std::size_t total_pending(TaskKind kind) const;

  /// Fraction of total cluster compute capability (cores x speed) on the
  /// machine — Tarazu's balancing target.
  double capability_share(cluster::MachineId id) const;

  /// Every expected job resolved.  A job awaiting a backpressure retry
  /// keeps jobs_expected_ above the resolved count, so the run waits for
  /// the retry to settle; a workload rejected-and-dropped in its entirety
  /// still terminates (the dropped count keeps the sum positive).
  bool all_done() const {
    return jobs_completed_ + jobs_failed_ == jobs_expected_ &&
           jobs_expected_ + jobs_dropped_ > 0;
  }
  std::size_t jobs_completed() const { return jobs_completed_; }
  std::size_t jobs_failed() const { return jobs_failed_; }

  /// Jobs rejected by admission control and dropped after exhausting their
  /// backoff retries (they never received a JobId).
  std::size_t jobs_dropped() const { return jobs_dropped_; }

  /// Attempt, fault, integrity and failover counters of the run so far.
  const JobTrackerCounters& counters() const { return counters_; }

  // --- overload protection ------------------------------------------------------

  /// The admission engine; null unless JobTrackerConfig::admission.enabled.
  const AdmissionControl* admission() const { return admission_.get(); }

  /// Current detector state (kNormal when the subsystem is disabled).
  OverloadState overload_state() const {
    return admission_ ? admission_->state() : OverloadState::kNormal;
  }

  /// Closes the admission ledgers and runs their conservation checks (no-op
  /// when disabled; idempotent).  Called by the Run harness before reading
  /// metrics.
  void finalize_admission();

  // --- fault-tolerance queries ------------------------------------------------

  /// True iff the machine's tracker can receive work: alive, and not
  /// declared lost, blacklisted or quarantined.  Schedulers weighing "is a
  /// better machine free" must consult this, not just free_slots().
  bool tracker_available(cluster::MachineId id) const;

  bool tracker_lost(cluster::MachineId id) const;
  bool tracker_blacklisted(cluster::MachineId id) const;

  /// True iff the node is quarantined as a suspected limper (fail-slow).
  bool tracker_quarantined(cluster::MachineId id) const;

  /// The node's progress-rate health EWMA (exactly 1.0 when never degraded).
  double node_health(cluster::MachineId id) const;

  /// Progress fraction of the task's live attempt in [0, 1] (max over its
  /// attempts when a speculative twin runs); -1 when no tracker runs it.
  double running_progress(JobId job, TaskKind kind, TaskIndex index) const;

  /// LATE's estimate of a running task's remaining time from its progress p
  /// (running_progress) after `elapsed` seconds: elapsed * (1 - p) / p.  A
  /// zero-progress attempt (still fetching, or crawling) pessimistically
  /// counts its elapsed time.
  Seconds estimated_remaining_time(JobId job, TaskKind kind, TaskIndex index,
                                   Seconds elapsed) const;

  // --- scheduler-cost attribution ----------------------------------------------

  /// Heartbeats processed live (fenced ones excluded).
  std::uint64_t heartbeats() const { return heartbeats_; }

  /// Scheduler::select_job invocations (one per slot offer).
  std::uint64_t select_job_calls() const { return select_job_calls_; }

  /// Wall-clock seconds spent inside Scheduler::select_job; 0 unless
  /// JobTrackerConfig::measure_scheduler_time is set.
  double select_job_wall_seconds() const { return select_job_wall_seconds_; }

  // --- degraded-mode queries --------------------------------------------------

  /// Re-replication streams currently in flight (experiments drain this to
  /// zero before reading HDFS invariants).
  int rereplication_active() const { return rerep_active_; }

  // --- data integrity ----------------------------------------------------------

  /// Silently corrupts one replica — the FaultInjector's corruption handler.
  /// `block` < 0 means the strike hit the machine and the handler picks the
  /// replica: `pick` in [0, 1) indexes the machine's blocks in ascending
  /// block-id order (scripted machine strikes pass 0.0 and take the first).
  /// Nothing fails here; the damage is found by a checksummed read, by the
  /// scrubber, or never.
  void inject_corruption(cluster::MachineId machine, std::int64_t block,
                         double pick);

  /// Consulted once per completed shuffle-fetch flow; true means the fetched
  /// payload fails checksum verification (the FaultInjector plugs its
  /// shuffle-corruption draw in here).
  void set_shuffle_corruption_hook(std::function<bool()> fn) {
    shuffle_corruption_hook_ = std::move(fn);
  }

  /// Consulted once per accepted map completion when
  /// JobTrackerConfig::verify_task_output is set; true means the attempt
  /// produced a corrupt output and must re-execute.
  void set_task_output_corruption_hook(std::function<bool()> fn) {
    output_corruption_hook_ = std::move(fn);
  }

  /// Closes the corruption ledger and checks its conservation law: every
  /// detection must be repaired, lost loudly, or still queued for repair,
  /// and every undetected injection must still carry its latent checksum
  /// marker.  Idempotent; called by the Run harness before reading metrics.
  void finalize_corruption();

  /// Seconds from injection to detection, one entry per detected corruption.
  const std::vector<Seconds>& corruption_detection_latencies() const {
    return corruption_detection_latencies_;
  }

  // --- control-plane fault tolerance ------------------------------------------

  /// JobTracker process death: the control plane stops — heartbeats,
  /// completion reports and failure reports are fenced (buffered as
  /// orphans), the expiry sweep and the forgiveness decays freeze, no work
  /// is assigned — while the data plane (running attempts, in-flight
  /// transfers) continues untouched.  Wired to the FaultInjector's master
  /// fault stream via the Run harness.
  void crash_master();

  /// JobTracker restart: replays the durable edit log (job + completion
  /// state, plus the in-flight attempt table up to the last committed
  /// checkpoint), advances the master epoch so stale reports stay fenced,
  /// spreads tracker re-registration over reregistration_window, resets the
  /// in-memory health/quarantine view (the blacklist, derived from durable
  /// job history, persists) and hands the scheduler its
  /// on_master_recovered() hook.
  void recover_master();

  /// NameNode process death: new task assignment and the re-replication pump
  /// pause (placements and split locations need the NameNode), datanode
  /// death/rejoin marks are buffered, and the fsimage snapshot is pinned.
  /// Reads of existing block locations stay served (they are ground truth).
  void crash_namenode();

  /// NameNode restart: restores the pinned fsimage snapshot, replays the
  /// buffered datanode marks in arrival order, rebuilds the
  /// under-replication queue and restarts the pump.
  void recover_namenode();

  /// True while the JobTracker process is up (the scheduler runs inside it).
  bool master_up() const { return master_up_; }
  bool namenode_up() const { return namenode_up_; }

  /// Fencing epoch, bumped at every master recovery.  Reports from trackers
  /// registered under an older epoch are buffered until re-registration.
  std::uint64_t master_epoch() const { return master_epoch_; }

  /// Order-independent digest over every orphan resolution this run:
  /// (job, kind, index, machine) -> outcome sequence, no timestamps.  Two
  /// runs resolving the same orphans the same way hash identically even if
  /// re-registration order differs (the storm-throttle invariance test).
  std::uint64_t orphan_resolution_digest() const;

  /// One entry per node-loss episode that orphaned work: seconds from loss
  /// detection until every re-queued task had completed again.
  const std::vector<Seconds>& recovery_times() const {
    return recovery_times_;
  }

  cluster::Cluster& cluster() { return cluster_; }
  const hdfs::NameNode& namenode() const { return namenode_; }
  sim::Simulator& simulator() { return sim_; }
  const JobTrackerConfig& config() const { return config_; }
  Scheduler& scheduler() { return scheduler_; }

  /// Invoked for every completed task (after job-state update).
  void set_report_listener(std::function<void(const TaskReport&)> fn) {
    report_listener_ = std::move(fn);
  }

  /// Invoked when a job finishes (successfully or failed — check
  /// JobState::failed()).
  void set_job_finished_listener(std::function<void(const JobState&)> fn) {
    job_finished_listener_ = std::move(fn);
  }

  /// Consulted once per attempt launch; returning a value in (0, 1) makes
  /// the attempt fail after that fraction of its duration (the FaultInjector
  /// plugs its transient-failure draw in here).
  void set_attempt_fault_hook(
      std::function<std::optional<double>(const TaskSpec&, cluster::MachineId)>
          fn) {
    attempt_fault_hook_ = std::move(fn);
  }

  /// Invoked for every piece of wasted work, tagged with why it was wasted.
  void set_waste_listener(std::function<void(const TaskReport&, WasteReason)> fn) {
    waste_listener_ = std::move(fn);
  }

  /// Consulted once per shuffle-fetch flow launch; returning a value in
  /// (0, 1) makes the fetch fail after that fraction of its solo transfer
  /// time (the FaultInjector plugs its fetch-failure draw in here).
  void set_fetch_fault_hook(
      std::function<std::optional<double>(JobId, cluster::MachineId)> fn) {
    fetch_fault_hook_ = std::move(fn);
  }

  /// Attaches (or, with nullptr, detaches) the invariant auditor.  The
  /// JobTracker and its TaskTrackers feed it every task-attempt lifecycle
  /// event; it must outlive the JobTracker or be detached first.
  void set_auditor(audit::InvariantAuditor* auditor) { auditor_ = auditor; }
  audit::InvariantAuditor* auditor() { return auditor_; }

 private:
  static constexpr std::size_t kNotFree = static_cast<std::size_t>(-1);

  /// Why a tracker receives no work.  A node may hold several reasons at
  /// once; it rejoins only when the last one clears.
  enum Suspension : std::size_t {
    kLost,         ///< heartbeat expiry declared the node gone
    kBlacklisted,  ///< fail-stop suspicion: too many attempt failures
    kQuarantined,  ///< fail-slow suspicion: confirmed-slow progress
    kSuspensions
  };

  /// Per-tracker master-side bookkeeping (heartbeat freshness, suspension,
  /// and the work that dies if the node does).
  struct TrackerState {
    Seconds last_heartbeat = 0.0;
    /// The Suspension reasons the node holds; only suspend and lift write
    /// them.
    std::bitset<kSuspensions> suspended;
    /// Progress-rate health EWMA (1.0 = full speed) and sample count.
    double health = 1.0;
    int health_samples = 0;
    /// The node crashed and its casualties await detection + re-queue.
    bool crash_pending = false;
    int failures = 0;
    /// Blacklist episodes so far: a blacklist_duration timer lifts only the
    /// episode that armed it, not one that began after decay forgave it.
    std::uint64_t blacklist_episode = 0;
    /// Attempts killed by a crash, awaiting detection + re-queue.
    std::vector<TaskReport> lost_attempts;
    /// Completed map outputs on the node's local disk, lost with it.
    std::map<std::pair<JobId, TaskIndex>, TaskReport> map_outputs;
    /// Per kind (map first): the free slots the node counts in free_slots_
    /// (0 while unavailable), and its place in that kind's free-machine
    /// set (kNotFree when not a member).
    std::array<int, 2> counted_free{};
    std::array<std::size_t, 2> free_position{kNotFree, kNotFree};
  };

  /// One node-loss episode: tasks re-queued at detection, drained as they
  /// complete again; the drain instant closes the recovery window.
  struct RecoveryRecord {
    Seconds start = 0.0;
    std::set<std::tuple<JobId, TaskKind, TaskIndex>> outstanding;
  };

  /// One in-flight transfer phase: the flows feeding one task attempt.
  struct TransferKey {
    JobId job = 0;
    TaskKind kind = TaskKind::kMap;
    TaskIndex index = 0;
    cluster::MachineId machine = 0;

    auto tie() const { return std::make_tuple(job, kind, index, machine); }
    bool operator<(const TransferKey& o) const { return tie() < o.tie(); }
  };

  struct PendingTransfer {
    std::set<net::FlowId> flows;      ///< outstanding fetches
    Seconds compute_duration = 0.0;   ///< starts when the last flow lands
    Seconds fail_after = 0.0;
    /// Failed fetches awaiting their backoff retry; compute starts only when
    /// both the flow set AND this counter are empty.
    int pending_retries = 0;
    /// Distinguishes this attempt's transfer from a successor under the same
    /// key (kill -> relaunch on the same machine): backoff retries carry the
    /// generation they were scheduled against and no-op on a successor.
    std::uint64_t generation = 0;
  };

  /// Everything needed to react to a flow's fate: which attempt it feeds,
  /// where it came from, and how to restart it elsewhere.
  struct OwnedFlow {
    TransferKey key;
    cluster::MachineId src = 0;
    net::TransferClass cls = net::TransferClass::kShuffle;
    double cap_mbps = 0.0;
    /// Full payload size: a fetch whose delivered bytes fail verification is
    /// discarded whole and refetched from scratch.
    Megabytes mb = 0.0;
  };

  /// Fetch-failure bookkeeping per (job, map-output source): Hadoop's
  /// per-source failed-fetch counter behind the threshold mechanism.
  struct FetchState {
    int failures = 0;
  };

  JobState& job_mutable(JobId id);
  void try_assign(TaskTracker& tracker, TaskKind kind);
  /// select_job with the scheduler-cost attribution wrapped around it (the
  /// call counter always; the wall-clock timer only when configured).
  std::optional<JobId> timed_select_job(cluster::MachineId machine,
                                        TaskKind kind);
  void try_speculate(TaskTracker& tracker, TaskKind kind);
  /// Lowers the kind's straggler horizon to the job's floor: after a change
  /// that can move its oldest running start or its mean completed duration
  /// down.
  void lower_straggler_horizon(const JobState& js, TaskKind kind);
  /// A straggler horizon no time is below: the next call walks.
  static constexpr Seconds kNoHorizon =
      -std::numeric_limits<Seconds>::infinity();
  /// The auditor's cross-check of a call the horizon skipped: the horizon
  /// must be below every active job's oldest start + threshold, so no
  /// job's oldest running task is past the threshold.
  void audit_straggler_horizon(TaskKind kind) const;
  Seconds base_duration(const TaskSpec& spec, const cluster::Machine& machine,
                        Locality locality) const;
  /// Builds a job's reduces once every one of its maps is done; the
  /// shuffle is folded into the reduce runtime.
  void maybe_build_reduces(JobState& js);
  double shuffle_skew_penalty(const JobState& js) const;
  void launch(JobState& js, TaskKind kind, TaskIndex index,
              TaskTracker& tracker, Locality locality);
  void launch_with_fabric(JobState& js, TaskKind kind, TaskIndex index,
                          TaskTracker& tracker, Locality locality);
  void start_owned_flow(const TransferKey& key, cluster::MachineId src,
                        cluster::MachineId dst, Megabytes mb, double cap_mbps,
                        net::TransferClass cls);
  void on_flow_complete(net::FlowId id, const TransferKey& key);
  void on_flow_failed(net::FlowId id, Megabytes remaining_mb);
  /// Once the attempt's last flow landed and no fetch retry is pending, ends
  /// its transfer phase and starts the compute phase.
  void begin_compute_if_drained(
      std::map<TransferKey, PendingTransfer>::iterator it);
  void abort_transfers(const TransferKey& key);
  void handle_network_casualties(cluster::MachineId dead);
  void start_replication_flows(const JobState& js, const TaskReport& report);
  std::optional<cluster::MachineId> pick_replica_source(
      hdfs::BlockId block, cluster::MachineId dst) const;
  void handle_fetch_failure(const OwnedFlow& of, Megabytes remaining_mb);
  void retry_fetch(const TransferKey& key, cluster::MachineId src,
                   Megabytes remaining_mb, double cap_mbps,
                   std::uint64_t generation);
  void declare_map_outputs_lost(JobId job, cluster::MachineId source);
  void kill_fetching_attempt(const TransferKey& key);
  void fail_fetching_attempt(const TransferKey& key);
  void handle_datanode_loss(cluster::MachineId machine);
  /// Checksummed read of a map input: fails over past corrupt replicas,
  /// confirming each one, until a clean replica answers or the block is
  /// lost.  No-op (and no state touched) when nothing is corrupt.
  void verify_read(hdfs::BlockId block, cluster::MachineId reader);
  /// The replica read-preference order's first choice: node-local, then
  /// rack-local, then first placement — mirrors the locality ranking.
  cluster::MachineId preferred_replica(hdfs::BlockId block,
                                       cluster::MachineId reader) const;
  /// Shared detection point of read verification and the scrubber: audits
  /// the detection, drops the replica via NameNode::confirm_corrupt, and
  /// either queues the repair or books the loud corrupt-block loss.
  void confirm_corruption(hdfs::BlockId block, cluster::MachineId node);
  /// One scrub pass over the next scrub_mbps * scrub_period megabytes of
  /// replicas (whole-replica granularity, persistent cursor).
  void scrub_tick();
  /// The shared charge path of handle_task_failure and output-verification
  /// rejection: waste attribution, scheduler + blacklist credit, attempt
  /// budget, re-queue.
  void charge_attempt_failure(TaskReport report, WasteReason reason);
  void pump_rereplication();
  /// If `flow` is a re-replication stream, forgets it and puts its block back
  /// on the NameNode's queue; returns whether it was one.
  bool release_rereplication(net::FlowId flow);
  void finish_rereplication(net::FlowId id, hdfs::BlockId block,
                            cluster::MachineId target, Megabytes mb);
  void decay_blacklist_counters();
  void start_checkpoint_timer();
  void reregister_tracker(TaskTracker& tracker);
  void resolve_orphans(cluster::MachineId machine);
  void reconcile_running_attempts(TaskTracker& tracker);
  /// Buffers the report as an orphan iff the master cannot accept it now
  /// (down, or the tracker's epoch is stale); returns whether it did.
  bool fence_report(const TaskReport& report, bool failed);
  /// Discards an orphaned attempt (audited kOrphanRequeue, outcome ledger,
  /// waste) and requeues its task; returns requeue_task's verdict.
  bool requeue_orphan(const TaskReport& report, int outcome);
  void note_orphan_outcome(const TaskSpec& spec, cluster::MachineId machine,
                           int outcome);
  void replay_pending_submissions();
  /// One submission attempt entering admission control (attempt 0 = fresh
  /// arrival from the trace, >0 = backpressure retry).  Buffers across
  /// master outages, consults AdmissionControl::decide, and either admits
  /// via submit_now or routes through reject_submission.
  /// `arrival` indexes arrivals_.
  void submit_arrival(std::uint32_t arrival, int attempt);
  /// Schedules the backoff retry for a rejected submission, or drops the
  /// job for good once its retry budget is spent.
  void reject_submission(std::uint32_t arrival, AdmissionVerdict verdict,
                         int attempt);
  /// Periodic detector tick: samples occupancy / backlog / deadline-slack
  /// pressure and applies brownout reactions on a state change.
  void detector_tick();
  /// Applies the brownout measures for the new state (speculation,
  /// re-replication throttle, scheduler notification).
  void apply_overload_state(OverloadState state);
  void apply_datanode_mark(cluster::MachineId machine, bool dead);
  bool attempt_covered(Seconds start) const {
    return checkpoint_coverage_ >= 0.0 && start <= checkpoint_coverage_;
  }
  void update_node_health(TaskTracker& tracker);
  void decay_quarantine();
  /// The only writers of TrackerState::suspended.  suspend sets the reason,
  /// refreshes the free-slot index and calls the scheduler's
  /// on_tracker_lost; lift clears it, refreshes the index and calls
  /// on_tracker_rejoined when the tracker is alive and holds no reason.
  void suspend(cluster::MachineId machine, Suspension why);
  void lift(cluster::MachineId machine, Suspension why);
  void check_tracker_expiry();
  void reclaim_lost_work(cluster::MachineId machine, bool datanode_lost);
  /// Sends the task of a dead attempt back to Pending: only while its job is
  /// live and the task still Running, clearing the speculative mark, and
  /// unless a twin attempt still runs it.  Returns whether it re-queued.
  bool requeue_task(JobId job, TaskKind kind, TaskIndex index);
  /// Reverts a completed map whose output (on report.machine's local disk)
  /// is gone, if its job is live and the map still Done; returns whether it
  /// did.
  bool revert_map_output(const TaskReport& report, WasteReason reason);
  void fail_job(JobState& js);
  /// Retires a completed or failed job: active list, per-job bookkeeping,
  /// scheduler, admission, audit record and listener.
  void retire_job(JobState& js);
  void report_waste(const TaskReport& report, WasteReason reason);
  void note_recovered(JobId job, TaskKind kind, TaskIndex index);
  bool running_elsewhere(JobId job, TaskKind kind, TaskIndex index) const;

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  hdfs::NameNode& namenode_;
  Scheduler& scheduler_;
  NoiseModel& noise_;
  JobTrackerConfig config_;
  net::Fabric* fabric_ = nullptr;
  audit::InvariantAuditor* auditor_ = nullptr;
  JobTrackerCounters counters_;

  std::map<TransferKey, PendingTransfer> transfers_;
  std::map<net::FlowId, OwnedFlow> flow_owner_;
  std::uint64_t transfer_generation_ = 0;

  // --- degraded-mode state ----------------------------------------------------

  std::map<std::pair<JobId, cluster::MachineId>, FetchState> fetch_state_;
  /// Fetch-failure strikes per reduce task (not per attempt: kills reset an
  /// attempt, the strikes persist until a shuffle completes or the task
  /// FAILS and is charged).
  std::map<std::pair<JobId, TaskIndex>, int> reduce_fetch_strikes_;
  /// In-flight re-replication flows: flow id -> the block being copied.
  std::map<net::FlowId, hdfs::BlockId> rerep_flows_;
  int rerep_active_ = 0;
  Seconds last_fault_decay_ = 0.0;

  // --- data-integrity state ---------------------------------------------------

  /// Injection time per still-undetected corrupt replica — erased at
  /// detection (feeding the latency histogram); what survives to finalize is
  /// the latent set.
  std::map<std::pair<hdfs::BlockId, cluster::MachineId>, Seconds>
      corrupt_injected_at_;
  /// Detections routed into the re-replication queue whose repair has not
  /// finished yet, per block.  finish_rereplication drains it one repair per
  /// completed copy; corrupt-block loss converts the remainder to lost.
  std::map<hdfs::BlockId, int> corrupt_pending_repair_;
  std::vector<Seconds> corruption_detection_latencies_;
  hdfs::BlockId scrub_cursor_ = 0;
  bool corruption_finalized_ = false;
  sim::EventId scrub_event_ = 0;

  std::vector<std::unique_ptr<TaskTracker>> trackers_;
  std::vector<std::unique_ptr<JobState>> jobs_;
  std::vector<JobId> active_;
  /// Pending tasks per kind (map first) over active_: updated where a claim,
  /// unclaim, revert, reduce build, submission or retirement changes them.
  std::array<std::size_t, 2> pending_tasks_{};

  /// One kind's free slots over available trackers: their total, and the
  /// machines with any, unordered (each one's place is in its
  /// TrackerState).
  struct FreeSlotIndex {
    int total = 0;
    std::vector<cluster::MachineId> machines;
  };
  std::array<FreeSlotIndex, 2> free_slots_;  ///< map first
  /// Per kind (map first): a time below which no active job holds a Running,
  /// non-speculative task past kStragglerBeta x its mean completed duration.
  /// At most the minimum over active jobs of the largest double below
  /// oldest start + kStragglerBeta * mean (+inf for a job with no completion
  /// or no such task).  find_straggler's full walk sets it to that minimum;
  /// lower_straggler_horizon follows the changes that can lower it, and
  /// master recovery resets it to -inf, where it also starts.
  mutable std::array<Seconds, 2> straggler_horizon_{kNoHorizon, kNoHorizon};
  std::vector<double> capability_share_;
  std::size_t jobs_expected_ = 0;
  std::size_t jobs_completed_ = 0;
  std::size_t jobs_failed_ = 0;
  std::size_t jobs_dropped_ = 0;

  // --- overload protection ----------------------------------------------------

  /// Non-null iff config_.admission.enabled.
  std::unique_ptr<AdmissionControl> admission_;
  /// Brownout: speculation suspended while Saturated or worse.
  bool speculation_suspended_ = false;
  /// Brownout: live cap on concurrent re-replication streams (restored to
  /// the full stream count on recovery).
  int rerep_limit_ = 0;

  std::vector<TrackerState> tracker_states_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<Seconds> recovery_times_;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t select_job_calls_ = 0;
  double select_job_wall_seconds_ = 0.0;
  Seconds last_quarantine_decay_ = 0.0;
  sim::EventId expiry_event_ = 0;
  sim::EventId detector_event_ = 0;

  // --- control-plane state ----------------------------------------------------

  /// A completion or failure report fenced while its tracker's epoch was
  /// stale (master down, or not yet re-registered), awaiting deterministic
  /// resolution at the tracker's re-registration.
  struct Orphan {
    TaskReport report;
    bool failed = false;  ///< failure report (vs. completion)
  };

  bool master_up_ = true;
  bool namenode_up_ = true;
  std::uint64_t master_epoch_ = 1;
  Seconds checkpoint_coverage_ = -1.0;  ///< last committed checkpoint; -1 none
  std::vector<std::uint64_t> tracker_epoch_;
  std::vector<Seconds> reregistration_gate_;
  // std::map: resolution iterates per tracker in task order (deterministic).
  std::map<std::tuple<JobId, TaskKind, TaskIndex, cluster::MachineId>, Orphan>
      orphans_;
  /// Every orphan resolution, keyed without timestamps so the digest is
  /// independent of re-registration order (outcomes append in key order).
  std::map<std::tuple<JobId, TaskKind, TaskIndex, cluster::MachineId>,
           std::vector<int>>
      orphan_outcomes_;
  /// Every spec handed to submit(), in call order.  Arrival, retry and
  /// replay carry a 32-bit index into it, so their callbacks ([this,
  /// arrival] and [this, arrival, attempt], 16 bytes and trivially
  /// copyable) fit std::function's inline buffer.  A deque grows in
  /// fixed-size chunks and never moves its elements.
  std::deque<workload::JobSpec> arrivals_;
  /// Submissions that arrived while a master was down, replayed in order:
  /// (arrival, the admission attempt it was on).
  std::vector<std::pair<std::uint32_t, int>> pending_submissions_;
  /// Datanode death/rejoin marks buffered while the NameNode was down.
  std::vector<std::pair<cluster::MachineId, bool>> pending_datanode_marks_;
  /// fsimage pinned at NameNode crash, restored at its recovery.
  std::optional<hdfs::NameNode::Snapshot> nn_snapshot_;
  sim::EventId checkpoint_event_ = 0;

  std::function<void(const TaskReport&)> report_listener_;
  std::function<void(const JobState&)> job_finished_listener_;
  std::function<std::optional<double>(const TaskSpec&, cluster::MachineId)>
      attempt_fault_hook_;
  std::function<void(const TaskReport&, WasteReason)> waste_listener_;
  std::function<std::optional<double>(JobId, cluster::MachineId)>
      fetch_fault_hook_;
  std::function<bool()> shuffle_corruption_hook_;
  std::function<bool()> output_corruption_hook_;
};

}  // namespace eant::mr
