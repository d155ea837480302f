#include "mapreduce/job_tracker.h"

#include <algorithm>
#include <atomic>
#include <chrono>  // lint-ok: wall-clock (scheduler-cost attribution only)
#include <cmath>
#include <cstdio>

#include "audit/auditor.h"
#include "common/error.h"

namespace eant::mr {
namespace {

/// Effective per-reduce shuffle bandwidth, MB/s (many small fetches over the
/// shared network, far below NIC line rate).  Without a fabric the shuffle
/// takes this fixed scalar regardless of how many transfers share the wire;
/// with one it only sizes the flows' rate caps, so link contention decides.
constexpr double kShuffleMbps = 20.0;

/// Bandwidth of a map's remote split read, MB/s (the Fig. 6 penalty): well
/// below NIC line speed, since remote reads compete with shuffle traffic and
/// the source disk.  Same dual role as kShuffleMbps.
constexpr double kRemoteReadMbps = 10.0;

/// Per-flow rate caps of reduce-output replication-pipeline writes (fabric
/// only: the scalar model never charged for them) and of block
/// re-replication, MB/s.
constexpr double kReplicationWriteMbps = 40.0;
constexpr double kRereplicationMbps = 40.0;

/// Concurrent block re-replication streams (Hadoop's dfs.max-repl-streams).
constexpr int kMaxReplicationStreams = 4;

/// A task is a straggler once its elapsed time exceeds this multiple of the
/// mean completed-task duration of its job and kind.
constexpr double kStragglerBeta = 1.5;

/// A quarantined node re-earns work once its health climbs back above this
/// (hysteresis above JobTrackerConfig::quarantine_threshold).
constexpr double kHealthRecoveryThreshold = 0.75;

/// Cap of the exponential fetch-retry backoff.
constexpr Seconds kFetchRetryBackoffMax = 160.0;

/// A reduce task that accumulates this many failed fetches without ever
/// completing a shuffle FAILS its attempt (burning budget) instead of being
/// killed and relaunched for free — Hadoop's shuffle-retry suicide.  Without
/// it a pathological fetch-failure regime livelocks: attempts are KILLED
/// (free) and re-shuffled forever while map outputs thrash between
/// declared-lost and re-executed.  The strike counter survives kills and
/// relaunches of the same reduce and resets only when a shuffle lands or an
/// attempt is charged, so four hopeless shuffles end the job loudly.
constexpr int kReduceFetchAbortLimit = 12;

/// Packs two ids into one audit-record key.
constexpr std::uint64_t audit_key(std::uint64_t hi, std::uint64_t lo) {
  return (hi << 32) ^ lo;
}

/// Flags, once per process, that network costs come from the scalar model.
void note_legacy_network() {
  // One note per process, not per Run: benches execute dozens of legacy
  // runs and the point is just to flag which model produced the numbers.
  // Atomic because the parallel sweep driver constructs Runs concurrently;
  // exchange() lets exactly one thread print, and the plain load keeps the
  // per-launch check off the shared cache line's write path.
  static std::atomic<bool> printed{false};  // lint-ok: global-state
  if (printed.load(std::memory_order_relaxed) || printed.exchange(true)) return;
  std::fprintf(stderr,
               "[eant] note: no network topology configured; network costs "
               "use the legacy scalar bandwidths (shuffle %.1f MB/s, remote "
               "read %.1f MB/s)\n",
               kShuffleMbps, kRemoteReadMbps);
}

}  // namespace

JobTracker::JobTracker(sim::Simulator& sim, cluster::Cluster& cluster,
                       hdfs::NameNode& namenode, Scheduler& scheduler,
                       NoiseModel& noise, JobTrackerConfig config)
    : sim_(sim),
      cluster_(cluster),
      namenode_(namenode),
      scheduler_(scheduler),
      noise_(noise),
      config_(std::move(config)) {
  EANT_CHECK(cluster_.size() >= 1, "cluster must have machines");
  EANT_CHECK(namenode_.num_datanodes() == cluster_.size(),
             "NameNode and Cluster must agree on machine count");
  EANT_CHECK(config_.reduce_slowstart >= 0.0 && config_.reduce_slowstart <= 1.0,
             "reduce_slowstart must be a fraction");
  EANT_CHECK(config_.tracker_expiry_window >= 0.0,
             "tracker expiry window must be non-negative");
  EANT_CHECK(config_.max_attempts >= 1, "tasks need at least one attempt");
  EANT_CHECK(config_.blacklist_threshold >= 0 &&
                 config_.blacklist_duration >= 0.0,
             "blacklist parameters must be non-negative");
  EANT_CHECK(config_.blacklist_decay_window >= 0.0,
             "blacklist decay window must be non-negative");
  EANT_CHECK(config_.health_ewma_alpha > 0.0 && config_.health_ewma_alpha <= 1.0,
             "health EWMA weight must lie in (0, 1]");
  EANT_CHECK(config_.quarantine_threshold >= 0.0 &&
                 config_.quarantine_threshold < 1.0,
             "quarantine threshold must lie in [0, 1)");
  EANT_CHECK(config_.quarantine_threshold <= kHealthRecoveryThreshold,
             "quarantine threshold must not exceed the recovery threshold");
  EANT_CHECK(config_.health_min_samples >= 1,
             "health detection needs at least one sample");
  EANT_CHECK(config_.quarantine_decay_window >= 0.0,
             "quarantine decay window must be non-negative");
  EANT_CHECK(config_.max_speculative_per_node >= 0,
             "speculative-per-node cap must be non-negative");
  EANT_CHECK(config_.fetch_failure_threshold >= 0,
             "fetch failure threshold must be non-negative");
  EANT_CHECK(config_.fetch_retry_backoff > 0.0 &&
                 config_.fetch_retry_backoff <= kFetchRetryBackoffMax,
             "fetch retry backoff must be positive and within its cap");
  EANT_CHECK(config_.checkpoint_interval >= 0.0 &&
                 config_.checkpoint_write_cost >= 0.0,
             "checkpoint parameters must be non-negative");
  EANT_CHECK(config_.reregistration_window >= 0.0,
             "re-registration window must be non-negative");
  EANT_CHECK(config_.scrub_period >= 0.0, "scrub period must be non-negative");
  EANT_CHECK(config_.scrub_mbps > 0.0, "scrub rate must be positive");
  const AdmissionConfig& adm = config_.admission;
  EANT_CHECK(adm.detector_interval > 0.0,
             "admission detector interval must be positive");
  EANT_CHECK(adm.ewma_alpha > 0.0 && adm.ewma_alpha <= 1.0,
             "admission EWMA weight must lie in (0, 1]");
  EANT_CHECK(adm.hysteresis > 0.0 && adm.hysteresis <= 1.0,
             "admission hysteresis must lie in (0, 1]");
  EANT_CHECK(adm.elevated_backlog <= adm.saturated_backlog &&
                 adm.saturated_backlog <= adm.critical_backlog,
             "admission backlog thresholds must be ordered");
  EANT_CHECK(adm.queue_bound_per_weight > 0.0,
             "admission queue bound must be positive");
  EANT_CHECK(adm.max_retries >= 0, "admission retry budget must be >= 0");
  EANT_CHECK(adm.retry_base > 0.0 && adm.retry_cap >= adm.retry_base,
             "admission retry backoff must be positive and capped above base");
  EANT_CHECK(adm.retry_jitter >= 0.0, "admission retry jitter must be >= 0");
  rerep_limit_ = kMaxReplicationStreams;
  scheduler_.attach(*this);
}

JobTracker::~JobTracker() {
  sim_.cancel(expiry_event_);
  sim_.cancel(checkpoint_event_);
  sim_.cancel(detector_event_);
  sim_.cancel(scrub_event_);
}

void JobTracker::start_trackers() {
  EANT_CHECK(trackers_.empty(), "trackers already started");
  double total_capability = 0.0;
  for (cluster::MachineId id = 0; id < cluster_.size(); ++id) {
    const auto& type = cluster_.machine(id).type();
    // Golden-ratio phases spread the heartbeats of adjacent machine ids
    // across the interval (deterministically), so no machine type is
    // systematically offered free slots before another.
    const double frac =
        std::fmod(0.6180339887498949 * static_cast<double>(id + 1), 1.0);
    trackers_.push_back(std::make_unique<TaskTracker>(
        sim_, cluster_.machine(id), *this, noise_, config_.heartbeat_interval,
        type.map_slots, type.reduce_slots,
        frac * config_.heartbeat_interval));
    total_capability += type.cores * type.cpu_factor;
  }
  capability_share_.resize(cluster_.size());
  for (cluster::MachineId id = 0; id < cluster_.size(); ++id) {
    const auto& type = cluster_.machine(id).type();
    capability_share_[id] = type.cores * type.cpu_factor / total_capability;
  }
  tracker_states_.resize(cluster_.size());
  tracker_epoch_.assign(cluster_.size(), master_epoch_);
  reregistration_gate_.assign(cluster_.size(), 0.0);
  if (config_.tracker_expiry_window > 0.0 ||
      config_.blacklist_decay_window > 0.0 ||
      (config_.quarantine_threshold > 0.0 &&
       config_.quarantine_decay_window > 0.0)) {
    // The real JobTracker sweeps for expired trackers on a timer of its own;
    // one sweep per heartbeat interval bounds detection latency at
    // expiry_window + heartbeat_interval.  The same sweep drives the
    // blacklist fault-counter decay and quarantine healing.
    expiry_event_ = sim_.schedule_periodic(config_.heartbeat_interval, [this] {
      if (!master_up_) return true;  // a dead master detects nothing
      check_tracker_expiry();
      decay_blacklist_counters();
      decay_quarantine();
      return true;
    });
  }
  start_checkpoint_timer();
  if (config_.admission.enabled) {
    // Constructed here, not in the ctor, so the Run harness's set_auditor
    // call has already landed and admission records reach the digest.  The
    // detector runs on its own timer; while the master is down the tick is
    // skipped entirely (a dead master classifies nothing), mirroring the
    // expiry sweep above.  Nothing is scheduled when admission is disabled,
    // keeping default runs digest-identical.
    admission_ = std::make_unique<AdmissionControl>(config_.admission, auditor_);
    detector_event_ =
        sim_.schedule_periodic(config_.admission.detector_interval, [this] {
          if (!master_up_) return true;
          detector_tick();
          return true;
        });
  }
  if (config_.scrub_period > 0.0) {
    // Background replica scrubbing: both masters must be up — the scan reads
    // through datanodes (TaskTrackers) but confirms corruption against the
    // NameNode's block map.  Nothing is scheduled when scrubbing is off,
    // keeping default runs digest-identical.
    scrub_event_ = sim_.schedule_periodic(config_.scrub_period, [this] {
      if (!master_up_ || !namenode_up_) return true;
      scrub_tick();
      return true;
    });
  }
}

void JobTracker::start_checkpoint_timer() {
  if (config_.checkpoint_interval <= 0.0) return;
  checkpoint_event_ =
      sim_.schedule_periodic(config_.checkpoint_interval, [this] {
        if (!master_up_) return true;  // no edit-log writer while down
        const Seconds started = sim_.now();
        const std::uint64_t epoch = master_epoch_;
        // The write becomes durable only checkpoint_write_cost later: a
        // master crash in between falls back to the previous committed
        // checkpoint, so coverage never includes a torn write.
        sim_.schedule_after(
            config_.checkpoint_write_cost, [this, started, epoch] {
              if (!master_up_ || master_epoch_ != epoch) return;
              checkpoint_coverage_ = started;
              ++checkpoints_written_;
              if (auditor_) {
                auditor_->record(audit::Record::kCheckpoint,
                                 checkpoints_written_);
              }
            });
        return true;
      });
}

void JobTracker::attach_fabric(net::Fabric& fabric) {
  EANT_CHECK(fabric.topology().num_nodes() == cluster_.size(),
             "fabric topology and cluster must agree on machine count");
  fabric_ = &fabric;
}

TaskTracker& JobTracker::tracker(cluster::MachineId id) {
  EANT_CHECK(id < trackers_.size(), "tracker id out of range");
  return *trackers_[id];
}

JobId JobTracker::submit_now(workload::JobSpec spec) {
  EANT_CHECK(!trackers_.empty(), "start_trackers() must precede submission");
  EANT_CHECK(master_up_ && namenode_up_,
             "job submission requires a live JobTracker and NameNode");
  const JobId id = jobs_.size();
  spec.submit_time = sim_.now();
  auto js = std::make_unique<JobState>(id, spec, cluster_.size());
  const auto blocks = namenode_.create_file(spec.input_mb);
  js->init_maps(blocks, namenode_);
  jobs_.push_back(std::move(js));
  active_.push_back(id);
  ++jobs_expected_;
  scheduler_.on_job_submitted(id);
  if (auditor_) auditor_->record(audit::Record::kJobSubmit, id);
  return id;
}

void JobTracker::submit(workload::JobSpec spec) {
  ++jobs_expected_;
  sim_.schedule_at(spec.submit_time, [this, spec]() mutable {
    // A fresh arrival is counted exactly once, before the master-outage
    // buffer — a buffered submission replayed later must not re-count.
    if (admission_) admission_->note_arrival(spec);
    submit_arrival(std::move(spec), /*attempt=*/0);
  });
}

void JobTracker::submit_arrival(workload::JobSpec spec, int attempt) {
  if (!master_up_ || !namenode_up_) {
    // The client retries until a live master accepts the job; the buffer
    // preserves arrival order for the replay at recovery.  jobs_expected_
    // stays counted, so all_done() holds out for the replayed jobs.
    pending_submissions_.emplace_back(std::move(spec), attempt);
    return;
  }
  if (admission_) {
    const AdmissionVerdict verdict =
        admission_->decide(spec, attempt, total_slots(),
                           total_pending(TaskKind::kMap) +
                               total_pending(TaskKind::kReduce),
                           sim_.now());
    if (verdict != AdmissionVerdict::kAdmit) {
      reject_submission(std::move(spec), verdict, attempt);
      return;
    }
  }
  --jobs_expected_;  // submit_now re-counts it
  const workload::JobSpec admitted = spec;
  const JobId id = submit_now(std::move(spec));
  if (admission_) admission_->note_admitted(id, admitted, sim_.now());
}

void JobTracker::reject_submission(workload::JobSpec spec,
                                   AdmissionVerdict verdict, int attempt) {
  Seconds delay = 0.0;
  if (admission_->note_rejection(spec, verdict, attempt, sim_.now(), &delay)) {
    // Backpressure: the client re-submits after a capped exponential
    // backoff.  jobs_expected_ stays counted, so the run waits for the
    // retry to resolve before declaring itself done.
    sim_.schedule_after(delay, [this, spec, attempt]() mutable {
      admission_->note_retry_arrival(spec.tenant);
      submit_arrival(std::move(spec), attempt + 1);
    });
    return;
  }
  // Retry budget exhausted: the job is dropped without ever getting a
  // JobId.  It leaves jobs_expected_ so the run can still drain.
  --jobs_expected_;
  ++jobs_dropped_;
}

void JobTracker::replay_pending_submissions() {
  if (pending_submissions_.empty()) return;
  auto pending = std::move(pending_submissions_);
  pending_submissions_.clear();
  for (auto& [spec, attempt] : pending) {
    submit_arrival(std::move(spec), attempt);
  }
}

void JobTracker::submit_all(const std::vector<workload::JobSpec>& specs) {
  for (const auto& s : specs) submit(s);
}

void JobTracker::detector_tick() {
  const int slots = total_slots();
  if (slots <= 0) return;
  const int free_slots =
      total_free_slots(TaskKind::kMap) + total_free_slots(TaskKind::kReduce);
  const double occupancy = 1.0 - static_cast<double>(free_slots) /
                                     static_cast<double>(slots);
  const std::size_t pending =
      total_pending(TaskKind::kMap) + total_pending(TaskKind::kReduce);
  // Demand in task waves per slot: running + queued tasks over capacity.
  // (See AdmissionConfig — queue bounds cap the queued fraction, so the
  // saturation signal must include the running wave to discriminate "full"
  // from "full with a wave waiting".)
  const double backlog =
      (static_cast<double>(pending) + static_cast<double>(slots - free_slots)) /
      static_cast<double>(slots);
  // Deadline-slack pressure: the fraction of active deadlined jobs whose
  // estimated queue wait (backlog drained at mean task time across all
  // slots) already overruns their deadline.
  std::size_t deadlined = 0;
  std::size_t pressured = 0;
  const double est_wait = static_cast<double>(pending) *
                          admission_->mean_task_seconds() /
                          static_cast<double>(slots);
  for (JobId id : active_) {
    const JobState& js = job(id);
    if (!js.spec().has_deadline()) continue;
    ++deadlined;
    if (sim_.now() + est_wait > js.spec().deadline) ++pressured;
  }
  const double slack_pressure =
      deadlined == 0 ? 0.0
                     : static_cast<double>(pressured) /
                           static_cast<double>(deadlined);
  const OverloadState prev = admission_->state();
  const OverloadState next =
      admission_->tick(occupancy, backlog, slack_pressure, sim_.now());
  if (next != prev) apply_overload_state(next);
}

void JobTracker::apply_overload_state(OverloadState state) {
  // Brownout sheds optional work before useful work; recovery restores it
  // in reverse because the detector decays one level per tick.
  speculation_suspended_ = state >= OverloadState::kSaturated;
  const int prev_limit = rerep_limit_;
  if (state >= OverloadState::kCritical) {
    rerep_limit_ = 0;
  } else if (state >= OverloadState::kSaturated) {
    rerep_limit_ = 1;
  } else {
    rerep_limit_ = kMaxReplicationStreams;
  }
  scheduler_.on_overload_state(state);
  // A raised throttle may unblock queued block copies immediately.
  if (rerep_limit_ > prev_limit) pump_rereplication();
}

void JobTracker::finalize_admission() {
  if (admission_) admission_->finalize(sim_.now());
}

void JobTracker::handle_heartbeat(TaskTracker& tracker) {
  const cluster::MachineId m = tracker.machine_id();
  if (!master_up_) {
    // The master process is dead: nobody hears the heartbeat.
    ++fenced_heartbeats_;
    return;
  }
  if (tracker_epoch_[m] != master_epoch_) {
    if (sim_.now() < reregistration_gate_[m]) {
      // Re-registration storm throttle: the restarted master admits the
      // fleet in machine-id order across reregistration_window; reports
      // arriving before a tracker's gate are fenced as stale-epoch.
      ++fenced_heartbeats_;
      return;
    }
    reregister_tracker(tracker);
  }
  ++heartbeats_;
  TrackerState& ts = tracker_states_[m];
  ts.last_heartbeat = sim_.now();
  if (ts.lost) {
    // A declared-lost tracker heartbeating again has rejoined (its lost work
    // was already re-queued at expiry time).  Its datanode re-registers as an
    // empty re-replication target — the declared loss already dropped its
    // replicas.
    ts.lost = false;
    maybe_rejoin(m);
    if (!namenode_.datanode_alive(m)) {
      apply_datanode_mark(m, /*dead=*/false);
    }
  } else if (ts.crash_pending) {
    // Fast restart: the node crashed and came back before the expiry window
    // elapsed, so the JobTracker never declared it lost — but the attempts
    // (and any local map outputs) died with the crash all the same.  Its
    // HDFS replicas survived on disk, so the datanode stays registered.
    reclaim_lost_work(m, /*datanode_lost=*/false);
    // The restarted node may be the source a stalled re-replication waited
    // for.
    pump_rereplication();
  }
  update_node_health(tracker);
  // No new work while blacklisted (fail-stop suspicion) or quarantined
  // (fail-slow suspicion).
  if (ts.blacklisted || ts.quarantined) return;
  // Placement decisions and split-locality answers need a live NameNode.
  if (!namenode_up_) return;
  try_assign(tracker, TaskKind::kMap);
  try_assign(tracker, TaskKind::kReduce);
}

void JobTracker::reregister_tracker(TaskTracker& tracker) {
  const cluster::MachineId m = tracker.machine_id();
  tracker_epoch_[m] = master_epoch_;
  const TrackerState& ts = tracker_states_[m];
  // A node that crashed since fencing began lost the local outputs behind
  // its buffered reports along with its attempts: nothing is committable.
  // Its orphans are dropped by reclaim_lost_work, which the heartbeat body
  // reaches through the lost / crash_pending paths (or already ran at
  // expiry detection).
  if (ts.lost || ts.crash_pending) return;
  resolve_orphans(m);
  reconcile_running_attempts(tracker);
}

void JobTracker::resolve_orphans(cluster::MachineId machine) {
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (std::get<3>(it->first) != machine) {
      ++it;
      continue;
    }
    const Orphan orphan = std::move(it->second);
    it = orphans_.erase(it);
    const TaskSpec& spec = orphan.report.spec;
    const bool is_map = spec.kind == TaskKind::kMap;
    const bool covered = attempt_covered(orphan.report.start);
    // A buffered failure report: a covered attempt takes the normal failure
    // path (attempt budget + blacklist credit); an attempt the replayed
    // checkpoint never knew requeues for free — the restarted master cannot
    // charge a failure it has no record of launching.
    if (orphan.failed && covered) {
      if (auditor_) {
        auditor_->on_task_transition(spec.job, is_map, spec.index,
                                     audit::TaskEvent::kFail, machine);
      }
      note_orphan_outcome(spec, machine, 1);
      handle_task_failure(orphan.report);
      continue;
    }
    // A buffered completion: commit iff the replayed checkpoint knew the
    // attempt (it launched inside coverage) and the task still wants the
    // result (no speculative twin won, job still live).
    const JobState& js = job(spec.job);
    if (!orphan.failed && covered && !js.failed() && !js.complete() &&
        js.status(spec.kind, spec.index) == TaskStatus::kRunning) {
      if (auditor_) {
        auditor_->on_task_transition(spec.job, is_map, spec.index,
                                     audit::TaskEvent::kOrphanCommit, machine);
      }
      note_orphan_outcome(spec, machine, 0);
      ++orphans_committed_;
      handle_completion(orphan.report);
      continue;
    }
    requeue_orphan(orphan.report, 2);
  }
}

void JobTracker::reconcile_running_attempts(TaskTracker& tracker) {
  const cluster::MachineId m = tracker.machine_id();
  for (const auto& a : tracker.running_attempts()) {
    if (attempt_covered(a.start)) continue;  // replayed table re-adopts it
    // The restarted master has no record of this in-flight attempt: kill it
    // (cancel_task audits the kKill) and requeue the task.
    tracker.cancel_task(a.spec.job, a.spec.kind, a.spec.index);
    ++killed_attempts_;
    ++orphans_requeued_;
    TaskReport waste;
    waste.spec = a.spec;
    waste.machine = m;
    waste.start = a.start;
    waste.finish = sim_.now();
    report_waste(waste, WasteReason::kOrphaned);
    note_orphan_outcome(a.spec, m, 2);
    requeue_task(a.spec.job, a.spec.kind, a.spec.index);
  }
}

bool JobTracker::fence_report(const TaskReport& report, bool failed) {
  if (accepts_reports(report.machine)) return false;
  // Master down or stale tracker epoch: the report lands in the orphan
  // buffer for deterministic resolution at the tracker's re-registration.
  ++fenced_completions_;
  orphans_[{report.spec.job, report.spec.kind, report.spec.index,
            report.machine}] = Orphan{report, failed};
  return true;
}

bool JobTracker::requeue_orphan(const TaskReport& report, int outcome) {
  const TaskSpec& spec = report.spec;
  if (auditor_) {
    auditor_->on_task_transition(spec.job, spec.kind == TaskKind::kMap,
                                 spec.index, audit::TaskEvent::kOrphanRequeue,
                                 report.machine);
  }
  note_orphan_outcome(spec, report.machine, outcome);
  ++orphans_requeued_;
  report_waste(report, WasteReason::kOrphaned);
  return requeue_task(spec.job, spec.kind, spec.index);
}

void JobTracker::note_orphan_outcome(const TaskSpec& spec,
                                     cluster::MachineId machine, int outcome) {
  orphan_outcomes_[{spec.job, spec.kind, spec.index, machine}].push_back(
      outcome);
}

std::uint64_t JobTracker::orphan_resolution_digest() const {
  // Keys iterate in sorted order and carry no timestamps, so the digest
  // depends only on WHAT was resolved and HOW — not on the re-registration
  // schedule that got there.
  audit::Fnv1a digest;
  for (const auto& [key, outcomes] : orphan_outcomes_) {
    digest.mix(static_cast<std::uint64_t>(std::get<0>(key)));
    digest.mix(
        static_cast<std::uint64_t>(std::get<1>(key) == TaskKind::kMap ? 0 : 1));
    digest.mix(static_cast<std::uint64_t>(std::get<2>(key)));
    digest.mix(static_cast<std::uint64_t>(std::get<3>(key)));
    for (int o : outcomes) digest.mix(static_cast<std::uint64_t>(o));
  }
  return digest.value();
}

void JobTracker::update_node_health(TaskTracker& tracker) {
  if (config_.quarantine_threshold <= 0.0) return;
  const cluster::MachineId m = tracker.machine_id();
  TrackerState& ts = tracker_states_[m];
  const auto rates = tracker.progress_rate_samples();
  if (rates.empty()) return;
  double mean = 0.0;
  for (double r : rates) mean += r;
  mean /= static_cast<double>(rates.size());
  // On a healthy machine every rate is exactly 1.0, so the EWMA update adds
  // alpha * 0 and the score stays bit-identical to its 1.0 initial value —
  // fail-slow detection is inert until a limp actually happens.
  ts.health += config_.health_ewma_alpha * (mean - ts.health);
  ++ts.health_samples;
  if (!ts.quarantined && ts.health_samples >= config_.health_min_samples &&
      ts.health < config_.quarantine_threshold) {
    ts.quarantined = true;
    ++quarantine_episodes_;
    // The node is not dead — its running attempts continue (and may still
    // finish) — but the scheduler must stop feeding it.
    scheduler_.on_tracker_lost(m);
  } else if (ts.quarantined && ts.health > kHealthRecoveryThreshold) {
    ts.quarantined = false;
    ts.health_samples = 0;
    maybe_rejoin(m);
  }
}

void JobTracker::decay_quarantine() {
  if (config_.quarantine_threshold <= 0.0 ||
      config_.quarantine_decay_window <= 0.0) {
    return;
  }
  const Seconds now = sim_.now();
  if (now - last_quarantine_decay_ < config_.quarantine_decay_window) return;
  last_quarantine_decay_ = now;
  for (cluster::MachineId m = 0; m < tracker_states_.size(); ++m) {
    TrackerState& ts = tracker_states_[m];
    if (!ts.quarantined) continue;
    // A quarantined node runs nothing, so its health can never recover from
    // progress samples alone; heal it halfway toward 1.0 per window (the
    // quarantine analogue of blacklist-counter halving) so the node is
    // eventually retried.  A still-limping node re-quarantines quickly.
    ts.health += 0.5 * (1.0 - ts.health);
    if (ts.health > kHealthRecoveryThreshold) {
      ts.quarantined = false;
      ts.health_samples = 0;
      maybe_rejoin(m);
    }
  }
}

void JobTracker::maybe_rejoin(cluster::MachineId machine) {
  // State-priority rule: a node may hold several suspensions at once (lost,
  // blacklisted, quarantined).  It re-earns work only when the LAST of them
  // clears — every clearing path funnels through here so no single decay can
  // hand work to a node another mechanism still distrusts.
  const TrackerState& ts = tracker_states_[machine];
  if (trackers_[machine]->alive() && !ts.lost && !ts.blacklisted &&
      !ts.quarantined) {
    scheduler_.on_tracker_rejoined(machine);
  }
}

void JobTracker::try_speculate(TaskTracker& tracker, TaskKind kind) {
  if (tracker.free_slots(kind) <= 0) return;
  const cluster::MachineId m = tracker.machine_id();
  // Longest-overdue straggler that this machine could beat.  With
  // speculative_progress_ranking the score is instead the LATE-style
  // estimated remaining time from the attempt's observed progress rate — a
  // limping node's near-stalled attempt ranks far above a merely unlucky
  // one, and the beat test compares against remaining work, not elapsed.
  JobId best_job = 0;
  TaskIndex best_index = 0;
  Seconds best_score = 0.0;
  bool found = false;
  const Seconds now = sim_.now();
  for (JobId id : active_) {
    const JobState& js = *jobs_[id];
    const Seconds mean = js.mean_completed_duration(kind);
    if (mean <= 0.0) continue;
    const std::size_t total =
        kind == TaskKind::kMap ? js.num_maps() : js.num_reduces();
    for (TaskIndex i = 0; i < total; ++i) {
      if (js.status(kind, i) != TaskStatus::kRunning) continue;
      if (js.is_speculative(kind, i)) continue;
      const Seconds elapsed = now - js.task_start_time(kind, i);
      if (elapsed <= kStragglerBeta * mean) continue;
      // Only worthwhile if a fresh attempt here is expected to beat the
      // original.
      const TaskSpec& spec = js.task(kind, i);
      const Locality locality = kind == TaskKind::kReduce
                                    ? Locality::kNodeLocal
                                    : namenode_.locality(spec.block, m);
      const Seconds here = base_duration(spec, cluster_.machine(m), locality);
      Seconds score;
      if (config_.speculative_progress_ranking) {
        const double p = running_progress(id, kind, i);
        // remaining = elapsed * (1 - p) / p; a zero-progress attempt (still
        // fetching, or crawling) pessimistically counts its elapsed time.
        const Seconds remaining =
            p > 0.0 ? elapsed * (1.0 - p) / p : elapsed;
        if (here >= remaining) continue;
        score = remaining;
      } else {
        if (here >= elapsed) continue;
        score = elapsed - mean;
      }
      if (score > best_score) {
        best_score = score;
        best_job = id;
        best_index = i;
        found = true;
      }
    }
  }
  if (found) start_speculative(best_job, kind, best_index, tracker);
}

std::optional<JobId> JobTracker::timed_select_job(cluster::MachineId machine,
                                                 TaskKind kind) {
  ++select_job_calls_;
  if (!config_.measure_scheduler_time) {
    return scheduler_.select_job(machine, kind);
  }
  // Wall-clock is fine here: the measurement is pure observation (it feeds
  // bench/perf_smoke's scheduler-work attribution and perfbench's traced
  // mode) and never influences any simulation decision, so determinism is
  // untouched.
  const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  const auto choice = scheduler_.select_job(machine, kind);
  const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  select_job_wall_seconds_ += std::chrono::duration<double>(t1 - t0).count();
  return choice;
}

void JobTracker::try_assign(TaskTracker& tracker, TaskKind kind) {
  const cluster::MachineId m = tracker.machine_id();
  while (tracker.free_slots(kind) > 0) {
    const auto choice = timed_select_job(m, kind);
    if (!choice) {
      // Brownout: speculative duplicates are the first work shed under
      // overload — every clone slot is a slot the backlog needed.
      if (config_.speculative_execution && !speculation_suspended_) {
        try_speculate(tracker, kind);
      }
      return;
    }
    JobState& js = job_mutable(*choice);
    EANT_CHECK(js.has_pending(kind),
               "scheduler selected a job with no pending task of this kind");

    Locality locality = Locality::kNodeLocal;
    std::optional<TaskIndex> index;
    if (kind == TaskKind::kMap) {
      index = js.claim_map(m, locality);
    } else {
      index = js.claim_reduce();
    }
    EANT_ASSERT(index.has_value(), "claim failed despite pending work");

    if (kind == TaskKind::kMap && config_.locality_override) {
      locality = config_.locality_override(js.task(kind, *index), m)
                     ? Locality::kNodeLocal
                     : Locality::kOffRack;
    }

    launch(js, kind, *index, tracker, locality);
  }
}

void JobTracker::launch(JobState& js, TaskKind kind, TaskIndex index,
                        TaskTracker& tracker, Locality locality) {
  const cluster::MachineId mid = tracker.machine_id();
  // Admitted-then-starved bookkeeping: the job demonstrably reached a slot.
  if (admission_) admission_->note_first_launch(js.id());
  if (kind == TaskKind::kMap) {
    // Checksummed DFS read: confirm (and fail over past) corrupt replicas
    // first, so the lost-block check below sees the post-verification truth
    // and the mutated() re-answer routes the read to a clean source.
    verify_read(js.task(kind, index).block, mid);
  }
  if (kind == TaskKind::kMap &&
      namenode_.block_lost(js.task(kind, index).block)) {
    // Every replica of the split died before recovery: the read times out and
    // the attempt FAILS (burning an attempt, like a real DFS read of a lost
    // block), so the job eventually fails instead of silently succeeding.
    // No noise draws — lost-block handling must not perturb healthy streams.
    const TaskSpec& spec = js.task(kind, index);
    const Seconds duration = config_.heartbeat_interval;
    js.mark_started(kind, index, mid, sim_.now());
    tracker.start_task(spec, duration, false, 0.5 * duration);
    return;
  }
  if (kind == TaskKind::kMap && namenode_.mutated() &&
      !config_.locality_override) {
    // Replica sets changed since the job's locality index was built
    // (datanode loss / re-replication): re-answer from the live NameNode so
    // the remote-read decision reflects where the data actually is.
    locality = namenode_.locality(js.task(kind, index).block, mid);
  }
  if (fabric_ != nullptr) {
    launch_with_fabric(js, kind, index, tracker, locality);
    return;
  }
  const cluster::MachineId m = tracker.machine_id();
  const TaskSpec& spec = js.task(kind, index);
  const bool local = locality == Locality::kNodeLocal;
  if ((kind == TaskKind::kMap && !local) ||
      (kind == TaskKind::kReduce && spec.shuffle_seconds > 0.0)) {
    note_legacy_network();
  }
  // Separate statements, because the operands of one product are
  // unsequenced: the straggler draw must precede the duration draw, as on
  // the fabric path.
  Seconds duration = base_duration(spec, cluster_.machine(m), locality);
  duration *= noise_.straggler_multiplier();
  duration *= noise_.duration_multiplier();
  Seconds fail_after = 0.0;
  if (attempt_fault_hook_) {
    if (const auto frac = attempt_fault_hook_(spec, m)) {
      fail_after = *frac * duration;
    }
  }
  js.mark_started(kind, index, m, sim_.now());
  tracker.start_task(spec, duration, local, fail_after);
}

void JobTracker::launch_with_fabric(JobState& js, TaskKind kind,
                                    TaskIndex index, TaskTracker& tracker,
                                    Locality locality) {
  const cluster::MachineId m = tracker.machine_id();
  const TaskSpec& spec = js.task(kind, index);
  const auto& machine = cluster_.machine(m);

  // The launch-time slowdown multiplier (CPU contention x straggler x noise)
  // stretches compute AND transfer alike on the legacy path, so here the
  // per-flow caps are divided by it: under never-binding links the transfer
  // phase then lasts exactly multiplier x (scalar transfer estimate), and
  // total attempt time reproduces the legacy model.  The noise draws keep
  // the legacy order (straggler, then duration) so both paths consume the
  // same RNG stream.
  double mult = 1.0;
  const double projected =
      (machine.demand_cores() + spec.cpu_demand) / machine.type().cores;
  if (projected > 1.0) mult = projected;
  mult *= noise_.straggler_multiplier();
  mult *= noise_.duration_multiplier();

  // Nominal runtime on purpose (see base_duration): the TaskTracker applies
  // the fail-slow stretch event-deterministically on its side.
  Seconds compute_d =
      machine.type().task_runtime(spec.cpu_ref_seconds, spec.io_mb) * mult;  // lint-ok: machine-speed
  Seconds fail_after = 0.0;
  if (attempt_fault_hook_) {
    // The transient fault runs down during the compute phase, matching the
    // legacy "fraction of the attempt's runtime" semantics as closely as a
    // two-phase attempt allows.
    if (const auto frac = attempt_fault_hook_(spec, m)) {
      fail_after = *frac * compute_d;
    }
  }

  js.mark_started(kind, index, m, sim_.now());

  struct FlowPlan {
    cluster::MachineId src;
    Megabytes mb;
    double cap_mbps;
    net::TransferClass cls;
  };
  std::vector<FlowPlan> plan;
  // Scalar transfer estimate, charged locally when no flow can carry it
  // (e.g. every replica or map output is on this very machine).
  Seconds transfer_fallback = 0.0;

  if (kind == TaskKind::kMap && locality != Locality::kNodeLocal) {
    transfer_fallback = spec.input_mb / kRemoteReadMbps;
    if (const auto src = pick_replica_source(spec.block, m)) {
      plan.push_back({*src, spec.input_mb, kRemoteReadMbps / mult,
                      net::TransferClass::kRemoteRead});
      transfer_fallback = 0.0;
    }
  } else if (kind == TaskKind::kReduce && spec.shuffle_seconds > 0.0) {
    // One fetch flow per surviving machine holding completed map output,
    // sized by its share.  Caps are proportional to bytes, so on an idle
    // network every fetch lasts exactly spec.shuffle_seconds x mult — the
    // legacy scalar — while shared links stretch the big fetches most.
    transfer_fallback = spec.shuffle_seconds;
    const auto& per_machine = js.completed_per_machine(TaskKind::kMap);
    std::size_t total = 0;
    for (auto c : per_machine) total += c;
    if (total > 0) {
      const Seconds solo_time = spec.shuffle_seconds * mult;
      for (cluster::MachineId src = 0; src < per_machine.size(); ++src) {
        if (src == m || per_machine[src] == 0) continue;
        if (!trackers_[src]->alive()) continue;  // outputs died with the node
        const Megabytes mb =
            spec.input_mb * (static_cast<double>(per_machine[src]) /
                             static_cast<double>(total));
        if (mb <= 0.0 || solo_time <= 0.0) continue;
        plan.push_back(
            {src, mb, mb / solo_time, net::TransferClass::kShuffle});
      }
      if (!plan.empty()) transfer_fallback = 0.0;
    }
  }

  if (plan.empty()) {
    // Nothing to move over the wire; any residual scalar estimate (an
    // all-local shuffle's merge cost) folds into the compute phase.
    compute_d += transfer_fallback * mult;
    tracker.start_fetching_task(spec, locality, nullptr);
    tracker.begin_compute(spec.job, kind, index, compute_d, fail_after);
    return;
  }

  const TransferKey key{spec.job, kind, index, m};
  EANT_ASSERT(!transfers_.contains(key), "duplicate in-flight transfer");
  PendingTransfer& pt = transfers_[key];
  pt.compute_duration = compute_d;
  pt.fail_after = fail_after;
  pt.generation = ++transfer_generation_;
  tracker.start_fetching_task(spec, locality,
                              [this, key] { abort_transfers(key); });
  for (const FlowPlan& fp : plan) {
    start_owned_flow(key, fp.src, m, fp.mb, fp.cap_mbps, fp.cls);
  }
}

void JobTracker::start_owned_flow(const TransferKey& key,
                                  cluster::MachineId src,
                                  cluster::MachineId dst, Megabytes mb,
                                  double cap_mbps, net::TransferClass cls) {
  const net::FlowId id = fabric_->start_flow(
      src, dst, mb, cap_mbps, cls,
      [this, key](net::FlowId fid) { on_flow_complete(fid, key); },
      [this](net::FlowId fid, Megabytes remaining) {
        on_flow_failed(fid, remaining);
      });
  transfers_[key].flows.insert(id);
  flow_owner_[id] = OwnedFlow{key, src, cls, cap_mbps, mb};
  if (cls == net::TransferClass::kShuffle && fetch_fault_hook_) {
    if (const auto frac = fetch_fault_hook_(key.job, src)) {
      // Transient fetch error (flaky serving tracker, dropped connection):
      // the flow dies after that fraction of its solo transfer time.
      const Seconds at = *frac * (mb / cap_mbps);
      sim_.schedule_after(at, [this, id] {
        if (fabric_->active(id)) fabric_->fail_flow(id);
      });
    }
  }
}

void JobTracker::on_flow_complete(net::FlowId id, const TransferKey& key) {
  const auto own = flow_owner_.find(id);
  OwnedFlow of;
  if (own != flow_owner_.end()) {
    of = own->second;
    flow_owner_.erase(own);
  }
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;  // attempt already torn down
  it->second.flows.erase(id);
  // Reduce-side checksum verification of the delivered map output: a corrupt
  // payload is as bad as an undelivered one — the bytes are discarded whole
  // and the fetch-failure machinery (threshold, backoff, E-Ant trail
  // penalty, abort limit) drives the refetch, so corruption cannot livelock
  // the shuffle.
  if (of.cls == net::TransferClass::kShuffle && of.mb > 0.0 &&
      shuffle_corruption_hook_ && shuffle_corruption_hook_()) {
    ++shuffle_corruptions_;
    if (auditor_) {
      auditor_->record(audit::Record::kCorruptionDetected,
                       audit_key(of.key.job, of.src));
    }
    handle_fetch_failure(of, of.mb);
    return;
  }
  begin_compute_if_drained(it);
}

void JobTracker::on_flow_failed(net::FlowId id, Megabytes remaining_mb) {
  // A re-replication stream died (link fault or endpoint loss): the pump
  // retries its block after a beat.
  if (release_rereplication(id)) {
    sim_.schedule_after(config_.fetch_retry_backoff,
                        [this] { pump_rereplication(); });
    return;
  }
  const auto own = flow_owner_.find(id);
  if (own == flow_owner_.end()) return;  // unowned replication-pipeline flow
  const OwnedFlow of = own->second;
  flow_owner_.erase(own);
  auto tit = transfers_.find(of.key);
  if (tit == transfers_.end()) return;  // attempt already torn down
  tit->second.flows.erase(id);

  if (of.cls == net::TransferClass::kRemoteRead) {
    // Remote split read: fail over to the nearest still-reachable replica
    // and move only the bytes that did not land.
    const TaskSpec& spec = job(of.key.job).task(of.key.kind, of.key.index);
    const auto src = pick_replica_source(spec.block, of.key.machine);
    if (remaining_mb > 0.0 && src.has_value()) {
      ++retransferred_flows_;
      start_owned_flow(of.key, *src, of.key.machine, remaining_mb,
                       of.cap_mbps, of.cls);
      return;
    }
    if (!src.has_value()) {
      // No reachable replica right now: kill the attempt (KILLED, not
      // FAILED — the machine did nothing wrong) so the map re-queues and
      // lands somewhere the data can reach.
      kill_fetching_attempt(of.key);
      return;
    }
    begin_compute_if_drained(tit);
    return;
  }
  handle_fetch_failure(of, remaining_mb);
}

void JobTracker::handle_fetch_failure(const OwnedFlow& of,
                                      Megabytes remaining_mb) {
  ++fetch_failures_;
  scheduler_.on_fetch_failed(of.key.job, of.src);
  if (auditor_) {
    auditor_->record(audit::Record::kFetchFailure,
                     audit_key(of.key.job, of.src));
  }
  FetchState& fs = fetch_state_[{of.key.job, of.src}];
  ++fs.failures;
  // Strikes against the reduce task itself: they survive attempt kills (a
  // relaunched reduce re-shuffles from scratch, so the prior failures still
  // represent zero progress) and clear only when a shuffle completes.  A
  // reduce that can never finish a shuffle must eventually FAIL — otherwise
  // a high fetch-failure regime kills and relaunches reducers for free
  // forever, and the run livelocks.
  int& strikes = reduce_fetch_strikes_[{of.key.job, of.key.index}];
  ++strikes;
  if (strikes >= kReduceFetchAbortLimit) {
    reduce_fetch_strikes_.erase({of.key.job, of.key.index});
    fail_fetching_attempt(of.key);
    return;
  }
  if (config_.fetch_failure_threshold > 0 &&
      fs.failures >= config_.fetch_failure_threshold) {
    // Hadoop's "too many fetch failures": the source's map outputs are
    // declared lost for this job and the maps re-execute elsewhere.
    declare_map_outputs_lost(of.key.job, of.src);
    if (transfers_.contains(of.key)) kill_fetching_attempt(of.key);
    return;
  }
  // Exponential backoff, then refetch the undelivered bytes from the same
  // source (the fault may be transient, or the link may heal).
  const int exponent = std::max(fs.failures - 1, 0);
  const Seconds backoff =
      std::min(config_.fetch_retry_backoff * std::pow(2.0, exponent),
               kFetchRetryBackoffMax);
  auto tit = transfers_.find(of.key);
  EANT_ASSERT(tit != transfers_.end(), "fetch failure without transfer state");
  ++tit->second.pending_retries;
  const TransferKey key = of.key;
  const cluster::MachineId src = of.src;
  const double cap = of.cap_mbps;
  const std::uint64_t gen = tit->second.generation;
  sim_.schedule_after(backoff, [this, key, src, remaining_mb, cap, gen] {
    retry_fetch(key, src, remaining_mb, cap, gen);
  });
}

void JobTracker::retry_fetch(const TransferKey& key, cluster::MachineId src,
                             Megabytes remaining_mb, double cap_mbps,
                             std::uint64_t generation) {
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;  // attempt torn down while backing off
  if (it->second.generation != generation) return;  // successor attempt
  --it->second.pending_retries;
  if (trackers_[src]->alive() && remaining_mb > 0.0) {
    start_owned_flow(key, src, key.machine, remaining_mb, cap_mbps,
                     net::TransferClass::kShuffle);
    return;
  }
  // The source died while we backed off — its outputs were reclaimed through
  // the node-loss path, so this fetch just drains.
  begin_compute_if_drained(it);
}

void JobTracker::declare_map_outputs_lost(JobId job, cluster::MachineId source) {
  fetch_state_.erase({job, source});
  JobState& js = job_mutable(job);
  if (js.failed() || js.complete()) return;
  // Every completed map output this job keeps on the source is obsolete:
  // revert the maps so they re-execute on reachable machines.
  auto& outputs = tracker_states_[source].map_outputs;
  for (auto it = outputs.begin(); it != outputs.end();) {
    if (it->first.first == job &&
        revert_map_output(it->second, WasteReason::kFetchFailed)) {
      ++fetch_reexecuted_maps_;
      it = outputs.erase(it);
    } else {
      ++it;
    }
  }

  // Reduces still fetching from the declared-lost source are pulling stale
  // data; kill those attempts (KILLED) so they re-shuffle once the maps land
  // again.
  std::set<TransferKey> stale;
  for (const auto& [fid, owned] : flow_owner_) {
    if (owned.key.job == job && owned.key.kind == TaskKind::kReduce &&
        owned.src == source) {
      stale.insert(owned.key);
    }
  }
  for (const TransferKey& key : stale) kill_fetching_attempt(key);
}

void JobTracker::kill_fetching_attempt(const TransferKey& key) {
  // cancel_task tears the attempt down without a completion report; its
  // abort callback drains any remaining fetch flows.
  trackers_[key.machine]->cancel_task(key.job, key.kind, key.index);
  abort_transfers(key);
  ++killed_attempts_;
  requeue_task(key.job, key.kind, key.index);
}

void JobTracker::fail_fetching_attempt(const TransferKey& key) {
  // The reducer gives up: tear down what is left of the shuffle, then let
  // the attempt FAIL through the normal completion path so it burns budget
  // (four hopeless shuffles end the job loudly instead of livelocking).
  abort_transfers(key);
  ++fetch_aborted_attempts_;
  TaskTracker& t = *trackers_[key.machine];
  EANT_ASSERT(t.alive() && t.is_running(key.job, key.kind, key.index),
              "fetch-aborting an attempt that is no longer running");
  const Seconds duration = config_.heartbeat_interval;
  t.begin_compute(key.job, key.kind, key.index, duration, 0.5 * duration);
}

void JobTracker::begin_compute_if_drained(
    std::map<TransferKey, PendingTransfer>::iterator it) {
  if (!it->second.flows.empty()) return;
  if (it->second.pending_retries > 0) return;  // fetches still backing off
  const TransferKey key = it->first;
  const PendingTransfer pt = it->second;
  transfers_.erase(it);
  if (key.kind == TaskKind::kReduce) {
    // The shuffle landed: the task made real progress, so its fetch-failure
    // strikes no longer indicate a hopeless reduce.
    reduce_fetch_strikes_.erase({key.job, key.index});
  }
  TaskTracker& t = *trackers_[key.machine];
  EANT_ASSERT(t.alive() && t.is_running(key.job, key.kind, key.index),
              "transfer finished for an attempt that is no longer running");
  t.begin_compute(key.job, key.kind, key.index, pt.compute_duration,
                  pt.fail_after);
}

void JobTracker::abort_transfers(const TransferKey& key) {
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;
  // Detach before aborting: abort_flow reallocates the whole fabric and the
  // owner map must already be consistent.
  const std::set<net::FlowId> flows = std::move(it->second.flows);
  transfers_.erase(it);
  for (net::FlowId f : flows) {
    flow_owner_.erase(f);
    fabric_->abort_flow(f);
  }
}

std::optional<cluster::MachineId> JobTracker::pick_replica_source(
    hdfs::BlockId block, cluster::MachineId dst) const {
  // Prefer a surviving replica in the reader's rack (the fetch then skips
  // the oversubscribed uplink), like Hadoop's pickup order.
  std::optional<cluster::MachineId> same_rack;
  std::optional<cluster::MachineId> elsewhere;
  for (cluster::MachineId n : namenode_.locations(block)) {
    if (n == dst || !trackers_[n]->alive()) continue;
    // A replica behind a downed link or a partitioned rack is no source.
    if (fabric_ != nullptr && !fabric_->reachable(n, dst)) continue;
    if (namenode_.rack_of(n) == namenode_.rack_of(dst)) {
      if (!same_rack) same_rack = n;
    } else if (!elsewhere) {
      elsewhere = n;
    }
  }
  return same_rack ? same_rack : elsewhere;
}

void JobTracker::handle_network_casualties(cluster::MachineId dead) {
  if (fabric_ == nullptr) return;
  // The dying tracker's own attempts already tore their fetches down, so
  // what remains touching the node is (a) flows it was *serving* to others
  // and (b) unowned replication-pipeline flows.  (a) restarts from another
  // holder of the data; (b) just dies.
  bool rerep_requeued = false;
  for (net::FlowId f : fabric_->flows_touching(dead)) {
    if (!fabric_->active(f)) continue;
    // An in-flight re-replication stream touching the dead node restarts
    // from/to surviving endpoints via the NameNode's queue.
    if (release_rereplication(f)) {
      fabric_->abort_flow(f);
      rerep_requeued = true;
      continue;
    }
    const auto own = flow_owner_.find(f);
    if (own == flow_owner_.end()) {
      fabric_->abort_flow(f);
      continue;
    }
    const TransferKey key = own->second.key;
    const cluster::MachineId dst = fabric_->flow_dst(f);
    const Megabytes remaining = fabric_->flow_remaining_mb(f);
    const double cap = fabric_->flow_cap_mbps(f);
    const net::TransferClass cls = fabric_->flow_class(f);
    flow_owner_.erase(own);
    auto tit = transfers_.find(key);
    EANT_ASSERT(tit != transfers_.end(), "owned flow without transfer state");
    tit->second.flows.erase(f);
    fabric_->abort_flow(f);

    std::optional<cluster::MachineId> source;
    if (cls == net::TransferClass::kRemoteRead) {
      source =
          pick_replica_source(job(key.job).task(key.kind, key.index).block, dst);
    } else {
      // Shuffle: refetch from the surviving machine holding the most of this
      // job's map output (a stand-in for the re-executed maps' new homes).
      const auto& per_machine =
          job(key.job).completed_per_machine(TaskKind::kMap);
      std::size_t best = 0;
      for (cluster::MachineId n = 0; n < per_machine.size(); ++n) {
        if (n == dst || n == dead || !trackers_[n]->alive()) continue;
        if (per_machine[n] > best) {
          best = per_machine[n];
          source = n;
        }
      }
    }

    if (remaining > 0.0 && source.has_value()) {
      ++retransferred_flows_;
      start_owned_flow(key, *source, dst, remaining, cap, cls);
    } else {
      // No surviving source (or nothing left to move): once the fetch set
      // drains, the attempt proceeds to compute with what it has.
      begin_compute_if_drained(tit);
    }
  }
  if (rerep_requeued) pump_rereplication();
}

void JobTracker::handle_datanode_loss(cluster::MachineId machine) {
  apply_datanode_mark(machine, /*dead=*/true);
}

void JobTracker::apply_datanode_mark(cluster::MachineId machine, bool dead) {
  if (!namenode_up_) {
    // The NameNode cannot hear the mark right now; it replays in arrival
    // order at recovery (data-loss detection moves to the replay, like real
    // HDFS learning of deaths from its post-restart heartbeat view).
    pending_datanode_marks_.emplace_back(machine, dead);
    return;
  }
  if (dead) {
    const std::size_t lost_before = namenode_.lost_blocks().size();
    namenode_.mark_datanode_dead(machine);
    const auto& lost = namenode_.lost_blocks();
    for (std::size_t i = lost_before; i < lost.size(); ++i) {
      ++data_loss_events_;
      if (auditor_) auditor_->record(audit::Record::kDataLoss, lost[i]);
    }
  } else {
    namenode_.mark_datanode_alive(machine);
  }
  pump_rereplication();
}

void JobTracker::pump_rereplication() {
  if (!namenode_up_) return;  // the work queue lives in the NameNode
  // rerep_limit_ is the brownout throttle: kMaxReplicationStreams under
  // Normal/Elevated, 1 under Saturated, 0 under Critical (background block
  // copies yield their bandwidth and slots to the backlog); restored by
  // apply_overload_state as the detector decays.
  while (rerep_active_ < rerep_limit_) {
    const auto work = namenode_.next_rereplication();
    if (!work) return;
    // Both endpoints must be serving right now; otherwise the block waits
    // for the next trigger (a rejoin, a finished stream, a node loss sweep).
    if (!trackers_[work->source]->alive() ||
        !trackers_[work->target]->alive()) {
      namenode_.requeue_rereplication(work->block);
      return;
    }
    const hdfs::BlockId block = work->block;
    const cluster::MachineId target = work->target;
    const Megabytes mb = namenode_.block_size(block);
    if (auditor_) {
      auditor_->record(audit::Record::kReplicaChange, audit_key(block, target));
    }
    ++rerep_active_;
    if (fabric_ != nullptr) {
      const net::FlowId fid = fabric_->start_flow(
          work->source, target, mb, kRereplicationMbps,
          net::TransferClass::kReplication,
          [this, block, target, mb](net::FlowId f) {
            finish_rereplication(f, block, target, mb);
          },
          [this](net::FlowId f, Megabytes remaining) {
            on_flow_failed(f, remaining);
          });
      rerep_flows_[fid] = block;
    } else {
      // Legacy scalar model: the copy just takes size / rate seconds.
      sim_.schedule_after(mb / kRereplicationMbps,
                          [this, block, target, mb] {
                            finish_rereplication(0, block, target, mb);
                          });
    }
  }
}

bool JobTracker::release_rereplication(net::FlowId flow) {
  const auto it = rerep_flows_.find(flow);
  if (it == rerep_flows_.end()) return false;
  const hdfs::BlockId block = it->second;
  rerep_flows_.erase(it);
  if (rerep_active_ > 0) --rerep_active_;
  namenode_.requeue_rereplication(block);
  return true;
}

void JobTracker::finish_rereplication(net::FlowId id, hdfs::BlockId block,
                                      cluster::MachineId target,
                                      Megabytes mb) {
  rerep_flows_.erase(id);
  if (rerep_active_ > 0) --rerep_active_;
  // The target may have been declared dead while the copy was in flight;
  // add_replica then re-queues the block instead of registering the copy.
  namenode_.add_replica(block, target);
  if (namenode_.is_local(block, target)) {
    ++rereplicated_blocks_;
    rereplication_mb_ += mb;
    // A registered copy of a block with confirmed-corrupt history settles
    // one detection in the repair ledger (copies are fungible: whichever
    // under-replication put the block on the queue, the new clean replica
    // restores what the dropped corrupt one cost).
    if (auto cit = corrupt_pending_repair_.find(block);
        cit != corrupt_pending_repair_.end()) {
      ++corruptions_repaired_;
      if (auditor_) {
        auditor_->record(audit::Record::kRepair, audit_key(block, target));
      }
      if (--cit->second <= 0) corrupt_pending_repair_.erase(cit);
    }
  }
  pump_rereplication();
}

// --- data integrity ----------------------------------------------------------

void JobTracker::inject_corruption(cluster::MachineId machine,
                                   std::int64_t block, double pick) {
  EANT_CHECK(machine < cluster_.size(), "corruption strike on unknown machine");
  hdfs::BlockId target = 0;
  if (block >= 0) {
    target = static_cast<hdfs::BlockId>(block);
  } else {
    // The strike hit the machine: pick one of its replicas.  Ascending block
    // order, so the choice depends only on `pick` and the disk's contents —
    // not on container iteration order.
    const std::vector<hdfs::BlockId> held = namenode_.blocks_on(machine);
    if (held.empty()) return;  // rot on an empty (or fully dropped) disk
    std::size_t i =
        static_cast<std::size_t>(pick * static_cast<double>(held.size()));
    if (i >= held.size()) i = held.size() - 1;
    target = held[i];
  }
  // Only a live, still-clean replica can newly rot; anything else the strike
  // lands on is a no-op, so the injected counter never double-books.
  if (!namenode_.corrupt_replica(target, machine)) return;
  ++corruptions_injected_;
  corrupt_injected_at_[{target, machine}] = sim_.now();
}

cluster::MachineId JobTracker::preferred_replica(
    hdfs::BlockId block, cluster::MachineId reader) const {
  const auto& locs = namenode_.locations(block);
  EANT_ASSERT(!locs.empty(), "preferred replica of a lost block");
  std::optional<cluster::MachineId> rack_local;
  for (cluster::MachineId n : locs) {
    if (n == reader) return n;  // node-local beats everything
    if (!rack_local && namenode_.rack_of(n) == namenode_.rack_of(reader)) {
      rack_local = n;
    }
  }
  return rack_local ? *rack_local : locs.front();
}

void JobTracker::verify_read(hdfs::BlockId block, cluster::MachineId reader) {
  if (corruptions_injected_ == 0) return;  // nothing anywhere can be corrupt
  // The reader tries replicas in preference order; every checksum mismatch
  // is reported to the NameNode (Hadoop's reportBadBlocks) and the read
  // fails over to the next replica, until a clean one answers or no replica
  // is left — the block is then lost and the launch path fails it loudly.
  bool failed_over = false;
  while (!namenode_.block_lost(block)) {
    const cluster::MachineId n = preferred_replica(block, reader);
    if (!namenode_.replica_corrupt(block, n)) break;
    failed_over = true;
    confirm_corruption(block, n);
  }
  if (failed_over) ++corrupt_read_failovers_;
}

void JobTracker::confirm_corruption(hdfs::BlockId block,
                                    cluster::MachineId node) {
  ++corruptions_detected_;
  if (auto it = corrupt_injected_at_.find({block, node});
      it != corrupt_injected_at_.end()) {
    corruption_detection_latencies_.push_back(sim_.now() - it->second);
    corrupt_injected_at_.erase(it);
  }
  if (auditor_) {
    auditor_->record(audit::Record::kCorruptionDetected,
                     audit_key(block, node));
  }
  const std::size_t lost_before = namenode_.lost_blocks().size();
  namenode_.confirm_corrupt(block, node);
  if (namenode_.lost_blocks().size() > lost_before) {
    // That was the last replica: loud corrupt-block loss.  Earlier
    // detections of this block still queued for repair can never be
    // satisfied — they are lost with it.
    ++data_loss_events_;
    if (auditor_) auditor_->record(audit::Record::kDataLoss, block);
    std::size_t lost = 1;
    if (auto pit = corrupt_pending_repair_.find(block);
        pit != corrupt_pending_repair_.end()) {
      lost += static_cast<std::size_t>(pit->second);
      corrupt_pending_repair_.erase(pit);
    }
    corruptions_lost_ += lost;
    return;
  }
  // The replica dropped into the under-replication queue; the next finished
  // copy of this block settles the detection in the repair ledger.
  ++corrupt_pending_repair_[block];
  pump_rereplication();
}

void JobTracker::scrub_tick() {
  // Brownout: under Critical the background scan yields entirely, like the
  // re-replication pump it feeds (the backlog owns the cluster's bandwidth).
  if (rerep_limit_ <= 0) return;
  const std::size_t total = namenode_.num_blocks();
  if (total == 0) return;
  ++scrub_passes_;
  double budget = config_.scrub_mbps * config_.scrub_period;
  std::uint64_t scanned = 0;
  std::size_t visited = 0;
  // Whole replicas in block order from a persistent cursor (the budget may
  // overshoot by at most one replica), wrapping at the end of the namespace
  // so every replica is revisited within one full scan period.
  while (budget > 0.0 && visited < total) {
    const hdfs::BlockId id = scrub_cursor_;
    scrub_cursor_ = (scrub_cursor_ + 1) % total;
    ++visited;
    if (namenode_.block_lost(id)) continue;
    const Megabytes mb = namenode_.block_size(id);
    // Copy: confirming a corrupt replica mutates the location set under us.
    const std::vector<cluster::MachineId> locs = namenode_.locations(id);
    for (cluster::MachineId n : locs) {
      budget -= mb;
      scrubbed_mb_ += mb;
      ++scanned;
      if (namenode_.replica_corrupt(id, n)) confirm_corruption(id, n);
      if (budget <= 0.0) break;
    }
  }
  if (auditor_) auditor_->record(audit::Record::kScrub, scanned);
}

void JobTracker::finalize_corruption() {
  if (corruption_finalized_) return;
  corruption_finalized_ = true;
  // Detections whose block was subsequently lost (by further corruption or
  // node deaths) can never be repaired: their queued repairs are lost too.
  for (auto it = corrupt_pending_repair_.begin();
       it != corrupt_pending_repair_.end();) {
    if (namenode_.block_lost(it->first)) {
      corruptions_lost_ += static_cast<std::size_t>(it->second);
      it = corrupt_pending_repair_.erase(it);
    } else {
      ++it;
    }
  }
  std::size_t pending = 0;
  for (const auto& [block, n] : corrupt_pending_repair_) {
    pending += static_cast<std::size_t>(n);
  }
  // Undetected injections stay latent: either the marker still sits on a
  // live replica, or the rotten replica evaporated with its node before
  // anything read it.  A live replica whose marker vanished would mean the
  // checksum state was silently cleared — a ledger violation.
  corruptions_latent_ = corrupt_injected_at_.size();
  if (auditor_ == nullptr) return;
  for (const auto& [key, t] : corrupt_injected_at_) {
    (void)t;
    if (namenode_.is_local(key.first, key.second) &&
        !namenode_.replica_corrupt(key.first, key.second)) {
      auditor_->report_violation(
          "corruption-conservation", audit::Severity::kError,
          "latent corrupt replica lost its checksum marker");
    }
  }
  if (corruptions_detected_ !=
      corruptions_repaired_ + corruptions_lost_ + pending) {
    auditor_->report_violation(
        "corruption-conservation", audit::Severity::kError,
        "detected corruptions must be repaired, lost, or awaiting repair");
  }
  if (corruptions_injected_ != corruptions_detected_ + corruptions_latent_) {
    auditor_->report_violation(
        "corruption-conservation", audit::Severity::kError,
        "injected corruptions must be detected or latent at finalize");
  }
}

void JobTracker::crash_master() {
  EANT_CHECK(master_up_, "JobTracker master crashed while already down");
  master_up_ = false;
  ++master_crashes_;
  if (auditor_) auditor_->record(audit::Record::kMasterCrash, 0);
}

void JobTracker::recover_master() {
  EANT_CHECK(!master_up_, "JobTracker master recovered while up");
  master_up_ = true;
  ++master_epoch_;
  if (auditor_) {
    auditor_->record(audit::Record::kMasterRecover, 0);
    auditor_->on_master_epoch(master_epoch_);
  }
  if (checkpoint_coverage_ >= 0.0) ++checkpoint_replays_;
  const Seconds now = sim_.now();
  const double fleet = std::max<double>(1.0, cluster_.size());
  for (cluster::MachineId m = 0; m < cluster_.size(); ++m) {
    TrackerState& ts = tracker_states_[m];
    // Grace period: the master has no heartbeat history, so every tracker
    // gets a fresh expiry clock rather than being declared lost for silence
    // that happened while nobody was listening.
    ts.last_heartbeat = now;
    // Health samples accumulated against the dead master's view are stale;
    // quarantine decisions restart from scratch (blacklists persist — they
    // record charged faults, not an opinion of the old master).
    ts.health = 1.0;
    ts.health_samples = 0;
    if (ts.quarantined) {
      ts.quarantined = false;
      maybe_rejoin(m);
    }
    // Stagger re-registration in machine-id order so a thousand trackers do
    // not stampede the recovering master in one event.
    reregistration_gate_[m] =
        now + config_.reregistration_window * (static_cast<double>(m) / fleet);
  }
  if (namenode_up_) replay_pending_submissions();
  // Scheduler hook last: it may immediately inspect tracker state.
  scheduler_.on_master_recovered(master_epoch_);
  // The restarted scheduler instance state survived (same process object),
  // but re-broadcast the overload state so a scheduler that resets its view
  // in on_master_recovered still sheds correctly.
  if (admission_) scheduler_.on_overload_state(admission_->state());
}

void JobTracker::crash_namenode() {
  EANT_CHECK(namenode_up_, "NameNode crashed while already down");
  namenode_up_ = false;
  ++master_crashes_;
  nn_snapshot_ = namenode_.snapshot();
  if (auditor_) auditor_->record(audit::Record::kMasterCrash, 1);
}

void JobTracker::recover_namenode() {
  EANT_CHECK(!namenode_up_, "NameNode recovered while up");
  namenode_up_ = true;
  if (auditor_) auditor_->record(audit::Record::kMasterRecover, 1);
  EANT_ASSERT(nn_snapshot_.has_value(),
              "NameNode recovery without a crash snapshot");
  namenode_.restore(*nn_snapshot_);
  nn_snapshot_.reset();
  // Replay datanode liveness changes observed during the outage in arrival
  // order; data-loss accounting happens here, against the restored map.
  const auto marks = std::move(pending_datanode_marks_);
  pending_datanode_marks_.clear();
  for (const auto& [machine, dead] : marks) apply_datanode_mark(machine, dead);
  namenode_.rebuild_under_replication();
  if (master_up_) replay_pending_submissions();
  pump_rereplication();
}

void JobTracker::decay_blacklist_counters() {
  if (config_.blacklist_decay_window <= 0.0) return;
  const Seconds now = sim_.now();
  if (now - last_fault_decay_ < config_.blacklist_decay_window) return;
  last_fault_decay_ = now;
  for (cluster::MachineId m = 0; m < tracker_states_.size(); ++m) {
    TrackerState& ts = tracker_states_[m];
    if (ts.failures > 0) ts.failures /= 2;
    if (ts.blacklisted && ts.failures < config_.blacklist_threshold) {
      // The decayed record no longer justifies the blacklist: forgive early.
      ts.blacklisted = false;
      maybe_rejoin(m);
    }
  }
}

void JobTracker::start_replication_flows(const JobState& js,
                                         const TaskReport& report) {
  const Megabytes out_mb =
      report.spec.input_mb * js.profile().reduce_output_ratio;
  if (out_mb <= 0.0 || cluster_.size() < 2) return;
  const cluster::MachineId m = report.machine;

  // Deterministic stand-in for the HDFS write pipeline (placement draws must
  // not perturb the NameNode's RNG stream): second replica goes to the first
  // surviving node outside the writer's rack, the third stays in the second
  // replica's rack, mirroring the rack-aware policy.  Replication is
  // asynchronous — the job does not wait for it — but its flows contend
  // with shuffles and remote reads on the shared links.
  std::optional<cluster::MachineId> second;
  std::optional<cluster::MachineId> fallback;
  for (std::size_t step = 1; step < cluster_.size(); ++step) {
    const cluster::MachineId n = (m + step) % cluster_.size();
    if (!trackers_[n]->alive()) continue;
    if (!fallback) fallback = n;
    if (namenode_.rack_of(n) != namenode_.rack_of(m)) {
      second = n;
      break;
    }
  }
  if (!second) second = fallback;
  if (!second) return;  // no other node survives

  const int copies =
      std::min(namenode_.replication() - 1,
               static_cast<int>(cluster_.size()) - 1);
  if (copies >= 1) {
    fabric_->start_flow(m, *second, out_mb, kReplicationWriteMbps,
                        net::TransferClass::kReplication, nullptr);
  }
  if (copies >= 2) {
    // Third replica: pipelined onward from the second, within its rack.
    std::optional<cluster::MachineId> third;
    for (std::size_t step = 1; step < cluster_.size(); ++step) {
      const cluster::MachineId n = (*second + step) % cluster_.size();
      if (n == m || !trackers_[n]->alive()) continue;
      if (!third) third = n;
      if (namenode_.rack_of(n) == namenode_.rack_of(*second)) {
        third = n;
        break;
      }
    }
    if (third) {
      fabric_->start_flow(*second, *third, out_mb, kReplicationWriteMbps,
                          net::TransferClass::kReplication, nullptr);
    }
  }
}

Seconds JobTracker::base_duration(const TaskSpec& spec,
                                  const cluster::Machine& machine,
                                  Locality locality) const {
  // The master's *nominal* expectation deliberately excludes fail-slow
  // multipliers: Hadoop's JobTracker does not know a node is limping, it
  // only observes the stretched progress downstream.
  Seconds base =
      machine.type().task_runtime(spec.cpu_ref_seconds, spec.io_mb);  // lint-ok: machine-speed
  if (spec.kind == TaskKind::kMap && locality != Locality::kNodeLocal) {
    base += spec.input_mb / kRemoteReadMbps;
  }
  base += spec.shuffle_seconds;
  // CPU oversubscription: beyond the core count, new tasks run
  // proportionally slower.
  const double projected =
      (machine.demand_cores() + spec.cpu_demand) / machine.type().cores;
  if (projected > 1.0) base *= projected;
  EANT_ASSERT(base > 0.0, "task duration must be positive");
  return base;
}

double JobTracker::shuffle_skew_penalty(const JobState& js) const {
  if (config_.skew_penalty_weight <= 0.0) return 1.0;
  const auto& per_machine = js.completed_per_machine(TaskKind::kMap);
  std::size_t total = 0;
  for (auto c : per_machine) total += c;
  if (total == 0) return 1.0;
  // Total-variation distance between where map output actually lives and
  // the capability-proportional placement that balances shuffle fetches.
  double tv = 0.0;
  for (cluster::MachineId m = 0; m < per_machine.size(); ++m) {
    const double share =
        static_cast<double>(per_machine[m]) / static_cast<double>(total);
    tv += std::abs(share - capability_share_[m]);
  }
  tv *= 0.5;
  return 1.0 + config_.skew_penalty_weight * tv;
}

void JobTracker::maybe_build_reduces(JobState& js) {
  if (js.reduces_built()) return;
  const auto needed = static_cast<std::size_t>(
      std::ceil(config_.reduce_slowstart * static_cast<double>(js.num_maps())));
  if (js.done(TaskKind::kMap) < std::max<std::size_t>(needed, 1)) return;

  const auto& p = js.profile();
  const Megabytes total_output = js.expected_map_output_mb();
  const int n = js.spec().num_reduces;
  const Megabytes per_reduce = total_output / n;
  const double penalty = shuffle_skew_penalty(js);
  const Seconds shuffle_time = per_reduce * penalty / kShuffleMbps;

  std::vector<TaskSpec> reduces;
  reduces.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    TaskSpec t;
    t.job = js.id();
    t.index = static_cast<TaskIndex>(i);
    t.kind = TaskKind::kReduce;
    t.input_mb = per_reduce;
    t.cpu_ref_seconds = p.reduce_cpu_s_per_mb * per_reduce;
    t.io_mb = p.reduce_io_mb_per_mb * per_reduce;
    t.shuffle_seconds = shuffle_time;
    t.cpu_demand = p.reduce_cpu_demand;
    reduces.push_back(t);
  }
  js.init_reduces(std::move(reduces));
}

bool JobTracker::start_speculative(JobId job, TaskKind kind, TaskIndex index,
                                   TaskTracker& tracker) {
  if (!master_up_ || !namenode_up_) return false;
  JobState& js = job_mutable(job);
  if (js.failed()) return false;
  if (js.status(kind, index) != TaskStatus::kRunning) return false;
  if (js.is_speculative(kind, index)) return false;
  if (!tracker_available(tracker.machine_id())) return false;
  if (tracker.free_slots(kind) <= 0) return false;

  // With the fabric on, an attempt is keyed by (job, kind, index, machine);
  // a speculative twin on the original's own machine would collide (and is
  // pointless anyway — it shares every bottleneck with the original).
  if (fabric_ != nullptr && tracker.is_running(job, kind, index)) return false;

  if (config_.max_speculative_per_node > 0) {
    // Cap concurrent clones of one node's originals: a deeply limping
    // machine can strand dozens of near-stalled attempts, and uncapped
    // speculation would flood the fleet's free slots with its duplicates.
    const cluster::MachineId origin = js.task_machine(kind, index);
    int clones = 0;
    for (JobId id : active_) {
      const JobState& other = *jobs_[id];
      for (TaskKind k : {TaskKind::kMap, TaskKind::kReduce}) {
        const std::size_t total =
            k == TaskKind::kMap ? other.num_maps() : other.num_reduces();
        for (TaskIndex i = 0; i < total; ++i) {
          if (other.status(k, i) != TaskStatus::kRunning) continue;
          if (!other.is_speculative(k, i)) continue;
          if (other.task_machine(k, i) == origin) ++clones;
        }
      }
    }
    if (clones >= config_.max_speculative_per_node) return false;
  }

  const TaskSpec& spec = js.task(kind, index);
  const cluster::MachineId m = tracker.machine_id();
  const Locality locality = kind == TaskKind::kReduce
                                ? Locality::kNodeLocal
                                : namenode_.locality(spec.block, m);
  js.mark_speculative(kind, index);
  launch(js, kind, index, tracker, locality);
  return true;
}

std::size_t JobTracker::preempt_attempt(JobId job, TaskKind kind,
                                        TaskIndex index) {
  if (!master_up_) return 0;
  JobState& js = job_mutable(job);
  if (js.failed() || js.complete()) return 0;
  if (js.status(kind, index) != TaskStatus::kRunning) return 0;

  std::size_t preempted = 0;
  for (auto& t : trackers_) {
    const auto report = t->preempt_task(job, kind, index);
    if (!report) continue;
    // An attempt still in its transfer phase held fabric flows; its abort
    // callback already fired, this drains the transfer bookkeeping.
    abort_transfers(TransferKey{job, kind, index, t->machine_id()});
    ++preempted;
    ++killed_attempts_;
    ++preempted_attempts_;
    report_waste(*report, WasteReason::kPreempted);
    if (auditor_) {
      auditor_->record(
          audit::Record::kPreempt,
          audit_key(job, (static_cast<std::uint64_t>(index) << 1) ^
                             (kind == TaskKind::kReduce ? 1u : 0u)));
    }
  }
  // Every live attempt (original + any speculative twin) is now dead: the
  // task re-queues cleanly for a later slot, exactly like a node-loss requeue
  // (KILLED, not FAILED — no attempt budget charged).
  if (preempted > 0) requeue_task(job, kind, index);
  return preempted;
}

void JobTracker::handle_completion(TaskReport report) {
  if (fence_report(report, /*failed=*/false)) return;
  JobState& js = job_mutable(report.spec.job);
  if (js.failed()) return;  // late completion of an already-failed job
  // A speculative twin may already have completed this task; the losing
  // attempt's report is dropped.
  if (js.status(report.spec.kind, report.spec.index) == TaskStatus::kDone) {
    return;
  }
  if (config_.verify_task_output && report.spec.kind == TaskKind::kMap &&
      output_corruption_hook_ && output_corruption_hook_()) {
    // End-to-end output verification: a limping machine can *produce*
    // garbage, not just store it, and the output checksum is the last line
    // of defence before the result commits.  The tracker's finish event is
    // revoked (the auditor sees a revert, so the work never counts twice),
    // the attempt is charged like a failure, and the map re-executes.
    ++task_output_corruptions_;
    if (auditor_) {
      auditor_->record(audit::Record::kCorruptionDetected,
                       audit_key(report.spec.job, report.spec.index));
      auditor_->on_task_transition(report.spec.job, /*is_map=*/true,
                                   report.spec.index,
                                   audit::TaskEvent::kRevertDone,
                                   report.machine);
    }
    charge_attempt_failure(std::move(report), WasteReason::kCorruption);
    return;
  }
  js.mark_done(report);
  // Kill the losing twin of a speculated task, wherever it still runs.
  if (js.is_speculative(report.spec.kind, report.spec.index)) {
    // The winner is already off its tracker's running set, so matching by
    // (job, kind, index) on every tracker only ever hits the loser.
    for (auto& t : trackers_) {
      t->cancel_task(report.spec.job, report.spec.kind, report.spec.index);
    }
  }
  // A completed map's output lives on the worker's local disk until the job
  // finishes — it dies (and must be re-run) if that node does.
  if (report.spec.kind == TaskKind::kMap) {
    tracker_states_[report.machine]
        .map_outputs[{report.spec.job, report.spec.index}] = report;
  }
  // A finished reduce writes its output back to HDFS; with the fabric on,
  // the replication pipeline's traffic contends with everything else.
  if (fabric_ != nullptr && report.spec.kind == TaskKind::kReduce) {
    start_replication_flows(js, report);
  }
  note_recovered(report.spec.job, report.spec.kind, report.spec.index);
  maybe_build_reduces(js);

  scheduler_.on_task_completed(report);
  if (admission_) admission_->note_task_duration(report.duration());
  if (report_listener_) report_listener_(report);

  if (js.complete()) retire_job(js);
}

void JobTracker::report_waste(const TaskReport& report, WasteReason reason) {
  wasted_task_seconds_ += report.duration();
  if (waste_listener_) waste_listener_(report, reason);
}

bool JobTracker::running_elsewhere(JobId job, TaskKind kind,
                                   TaskIndex index) const {
  for (const auto& t : trackers_) {
    if (t->is_running(job, kind, index)) return true;
  }
  return false;
}

void JobTracker::record_crash_casualties(cluster::MachineId machine,
                                         std::vector<TaskReport> killed) {
  EANT_CHECK(machine < tracker_states_.size(), "unknown tracker crashed");
  TrackerState& ts = tracker_states_[machine];
  ts.crash_pending = true;
  killed_attempts_ += killed.size();
  for (auto& r : killed) {
    report_waste(r, WasteReason::kCrashKilled);
    ts.lost_attempts.push_back(std::move(r));
  }
  // The dying attempts' own fetches were already torn down (via their
  // abort_transfer callbacks); now deal with flows the dead node was serving.
  handle_network_casualties(machine);
}

void JobTracker::handle_task_failure(TaskReport report) {
  if (fence_report(report, /*failed=*/true)) return;
  charge_attempt_failure(std::move(report), WasteReason::kAttemptFailed);
}

void JobTracker::charge_attempt_failure(TaskReport report, WasteReason reason) {
  const cluster::MachineId m = report.machine;
  EANT_CHECK(m < tracker_states_.size(), "failure from unknown tracker");
  TrackerState& ts = tracker_states_[m];
  ++failed_attempts_;
  report_waste(report, reason);
  scheduler_.on_task_failed(report.spec, m);

  ++ts.failures;
  if (config_.blacklist_threshold > 0 && !ts.blacklisted &&
      ts.failures >= config_.blacklist_threshold) {
    ts.blacklisted = true;
    scheduler_.on_tracker_lost(m);
    sim_.schedule_after(config_.blacklist_duration, [this, m] {
      TrackerState& s = tracker_states_[m];
      if (!s.blacklisted) return;  // counter decay already forgave it
      // The blacklist is durable state and its timers belong to the master
      // process: while it is down nothing forgives — the decay sweep
      // resumes after recovery and clears the entry eventually.
      if (!master_up_) return;
      s.blacklisted = false;
      s.failures = 0;
      maybe_rejoin(m);
    });
  }

  JobState& js = job_mutable(report.spec.job);
  const TaskKind kind = report.spec.kind;
  const TaskIndex index = report.spec.index;
  if (js.failed() || js.complete()) return;
  // A speculative winner may already have finished the task; the loser's
  // failure is then moot.
  if (js.status(kind, index) != TaskStatus::kRunning) return;

  if (js.record_attempt_failure(kind, index) >= config_.max_attempts) {
    fail_job(js);
    return;
  }
  // Re-queue for the next attempt, unless a speculative twin still runs and
  // carries the task alone.
  requeue_task(report.spec.job, kind, index);
}

void JobTracker::check_tracker_expiry() {
  if (config_.tracker_expiry_window <= 0.0) return;
  const Seconds now = sim_.now();
  for (cluster::MachineId m = 0; m < tracker_states_.size(); ++m) {
    TrackerState& ts = tracker_states_[m];
    if (ts.lost) continue;
    if (now - ts.last_heartbeat <= config_.tracker_expiry_window) continue;
    ts.lost = true;
    // Expiry declares the whole node gone — datanode included: its replicas
    // drop and under-replicated blocks queue for recovery.  (A fast restart
    // never reaches here and keeps its disk.)
    reclaim_lost_work(m, /*datanode_lost=*/true);
    scheduler_.on_tracker_lost(m);
  }
}

void JobTracker::reclaim_lost_work(cluster::MachineId machine,
                                   bool datanode_lost) {
  TrackerState& ts = tracker_states_[machine];
  ts.crash_pending = false;
  // Drop the dead datanode's replicas BEFORE reverting its maps, so the
  // re-seeded locality indices already exclude it.
  if (datanode_lost) handle_datanode_loss(machine);
  RecoveryRecord rec;
  rec.start = sim_.now();

  // Reports fenced while the master was down die with the node that produced
  // them — the outputs behind a buffered completion lived on its local disk.
  // Requeue the tasks; nothing is committable.
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (std::get<3>(it->first) != machine) {
      ++it;
      continue;
    }
    const Orphan orphan = std::move(it->second);
    it = orphans_.erase(it);
    const TaskSpec& spec = orphan.report.spec;
    if (requeue_orphan(orphan.report, 3)) {
      rec.outstanding.insert({spec.job, spec.kind, spec.index});
    }
  }

  // Attempts that were running when the node died: back to Pending, unless a
  // speculative twin elsewhere already carries (or carried) the task.
  for (const TaskReport& r : ts.lost_attempts) {
    if (requeue_task(r.spec.job, r.spec.kind, r.spec.index)) {
      rec.outstanding.insert({r.spec.job, r.spec.kind, r.spec.index});
    }
  }
  ts.lost_attempts.clear();

  // Completed map outputs lived on the node's local disk: in-flight jobs
  // must re-run those maps (reduce outputs are HDFS-replicated and safe).
  for (const auto& [key, r] : ts.map_outputs) {
    if (revert_map_output(r, WasteReason::kLostMapOutput)) {
      ++lost_map_outputs_;
      rec.outstanding.insert({key.first, TaskKind::kMap, key.second});
    }
  }
  ts.map_outputs.clear();

  if (!rec.outstanding.empty()) recoveries_.push_back(std::move(rec));
}

void JobTracker::note_recovered(JobId job, TaskKind kind, TaskIndex index) {
  for (auto it = recoveries_.begin(); it != recoveries_.end();) {
    it->outstanding.erase({job, kind, index});
    if (it->outstanding.empty()) {
      recovery_times_.push_back(sim_.now() - it->start);
      it = recoveries_.erase(it);
    } else {
      ++it;
    }
  }
}

bool JobTracker::requeue_task(JobId job, TaskKind kind, TaskIndex index) {
  JobState& js = job_mutable(job);
  if (js.failed() || js.complete()) return false;
  if (js.status(kind, index) != TaskStatus::kRunning) return false;
  js.clear_speculative(kind, index);
  if (running_elsewhere(job, kind, index)) return false;
  js.unclaim(kind, index);
  return true;
}

bool JobTracker::revert_map_output(const TaskReport& report,
                                   WasteReason reason) {
  const TaskSpec& spec = report.spec;
  JobState& js = job_mutable(spec.job);
  if (js.failed() || js.complete()) return false;
  if (js.status(TaskKind::kMap, spec.index) != TaskStatus::kDone) return false;
  js.revert_done_map(spec.index, report.duration(),
                     namenode_.locations(spec.block), report.machine);
  if (auditor_) {
    auditor_->on_task_transition(spec.job, true, spec.index,
                                 audit::TaskEvent::kRevertDone, report.machine);
  }
  report_waste(report, reason);
  return true;
}

void JobTracker::retire_job(JobState& js) {
  const JobId job = js.id();
  js.set_finish_time(sim_.now());
  ++(js.failed() ? jobs_failed_ : jobs_completed_);
  active_.erase(std::remove(active_.begin(), active_.end(), job),
                active_.end());
  std::erase_if(fetch_state_,
                [job](const auto& kv) { return kv.first.first == job; });
  std::erase_if(reduce_fetch_strikes_,
                [job](const auto& kv) { return kv.first.first == job; });
  for (auto& ts : tracker_states_) {
    std::erase_if(ts.map_outputs,
                  [job](const auto& kv) { return kv.first.first == job; });
    std::erase_if(ts.lost_attempts,
                  [job](const TaskReport& r) { return r.spec.job == job; });
  }
  for (auto it = recoveries_.begin(); it != recoveries_.end();) {
    std::erase_if(it->outstanding,
                  [job](const auto& key) { return std::get<0>(key) == job; });
    if (it->outstanding.empty()) {
      it = recoveries_.erase(it);  // aborted by job retirement, not timed
    } else {
      ++it;
    }
  }
  scheduler_.on_job_finished(job);
  if (admission_) admission_->note_job_finished(job, js.spec(), sim_.now());
  if (auditor_) auditor_->record(audit::Record::kJobFinish, job);
  if (job_finished_listener_) job_finished_listener_(js);
}

void JobTracker::fail_job(JobState& js) {
  js.set_failed();
  // Kill the job's surviving attempts everywhere; their partial work is
  // wasted along with everything the job already completed.
  for (auto& t : trackers_) {
    if (!t->alive()) continue;
    for (auto& r : t->cancel_job(js.id())) {
      report_waste(r, WasteReason::kJobFailed);
    }
  }
  retire_job(js);
}

bool JobTracker::tracker_available(cluster::MachineId id) const {
  EANT_CHECK(id < trackers_.size(), "tracker id out of range");
  const TrackerState& ts = tracker_states_[id];
  return trackers_[id]->alive() && !ts.lost && !ts.blacklisted &&
         !ts.quarantined;
}

bool JobTracker::tracker_lost(cluster::MachineId id) const {
  EANT_CHECK(id < tracker_states_.size(), "tracker id out of range");
  return tracker_states_[id].lost;
}

bool JobTracker::tracker_blacklisted(cluster::MachineId id) const {
  EANT_CHECK(id < tracker_states_.size(), "tracker id out of range");
  return tracker_states_[id].blacklisted;
}

bool JobTracker::tracker_quarantined(cluster::MachineId id) const {
  EANT_CHECK(id < tracker_states_.size(), "tracker id out of range");
  return tracker_states_[id].quarantined;
}

double JobTracker::node_health(cluster::MachineId id) const {
  EANT_CHECK(id < tracker_states_.size(), "tracker id out of range");
  return tracker_states_[id].health;
}

double JobTracker::running_progress(JobId job, TaskKind kind,
                                    TaskIndex index) const {
  double best = -1.0;
  for (const auto& t : trackers_) {
    const double p = t->running_progress(job, kind, index);
    if (p > best) best = p;
  }
  return best;
}

const JobState& JobTracker::job(JobId id) const {
  EANT_CHECK(id < jobs_.size(), "job id out of range");
  return *jobs_[id];
}

JobState& JobTracker::job_mutable(JobId id) {
  EANT_CHECK(id < jobs_.size(), "job id out of range");
  return *jobs_[id];
}

std::vector<JobId> JobTracker::runnable_jobs(TaskKind kind) const {
  std::vector<JobId> out;
  for (JobId id : active_) {
    if (jobs_[id]->has_pending(kind)) out.push_back(id);
  }
  return out;
}

int JobTracker::total_slots() const {
  return cluster_.total_map_slots() + cluster_.total_reduce_slots();
}

int JobTracker::total_free_slots(TaskKind kind) const {
  int total = 0;
  for (cluster::MachineId m = 0; m < trackers_.size(); ++m) {
    if (!tracker_available(m)) continue;
    total += trackers_[m]->free_slots(kind);
  }
  return total;
}

std::size_t JobTracker::total_pending(TaskKind kind) const {
  std::size_t total = 0;
  for (JobId id : active_) total += jobs_[id]->pending(kind);
  return total;
}

double JobTracker::capability_share(cluster::MachineId id) const {
  EANT_CHECK(id < capability_share_.size(),
             "capability queried before start_trackers()");
  return capability_share_[id];
}

}  // namespace eant::mr
