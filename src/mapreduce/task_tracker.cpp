#include "mapreduce/task_tracker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "audit/auditor.h"
#include "common/error.h"
#include "common/fp.h"
#include "mapreduce/job_tracker.h"

namespace eant::mr {
namespace {

// Feeds one attempt-lifecycle event to the audit layer (if attached).
void audit_transition(JobTracker& jt, const TaskSpec& spec,
                      cluster::MachineId machine, audit::TaskEvent event) {
  if (audit::InvariantAuditor* auditor = jt.auditor()) {
    auditor->on_task_transition(spec.job, spec.kind == TaskKind::kMap,
                                spec.index, event, machine);
  }
}

}  // namespace

TaskTracker::TaskTracker(sim::Simulator& sim, cluster::Machine& machine,
                         JobTracker& job_tracker, NoiseModel& noise,
                         Seconds heartbeat_interval, int map_slots,
                         int reduce_slots, Seconds heartbeat_phase)
    : sim_(sim),
      machine_(machine),
      job_tracker_(job_tracker),
      noise_(noise),
      heartbeat_(heartbeat_interval),
      map_slots_(map_slots),
      reduce_slots_(reduce_slots) {
  EANT_CHECK(heartbeat_interval > 0.0, "heartbeat interval must be positive");
  EANT_CHECK(heartbeat_phase >= 0.0 && heartbeat_phase < heartbeat_interval,
             "heartbeat phase must be within one interval");
  EANT_CHECK(map_slots >= 0 && reduce_slots >= 0,
             "slot counts must be non-negative");
  start_heartbeat(heartbeat_phase > 0.0 ? heartbeat_phase : heartbeat_);
}

TaskTracker::~TaskTracker() { sim_.cancel(heartbeat_event_); }

void TaskTracker::start_heartbeat(Seconds first_delay) {
  heartbeat_event_ = sim_.schedule_periodic(
      heartbeat_, [this] { return heartbeat(); }, first_delay);
}

int TaskTracker::running(TaskKind kind) const {
  return kind == TaskKind::kMap ? running_maps_ : running_reduces_;
}

int TaskTracker::free_slots(TaskKind kind) const {
  if (!alive_) return 0;
  return (kind == TaskKind::kMap ? map_slots_ : reduce_slots_) - running(kind);
}

std::size_t TaskTracker::completed(TaskKind kind) const {
  return kind == TaskKind::kMap ? completed_maps_ : completed_reduces_;
}

TaskTracker::Running& TaskTracker::occupy_slot(const TaskSpec& spec,
                                               std::uint64_t attempt) {
  EANT_CHECK(alive_, "a crashed TaskTracker cannot start tasks");
  EANT_CHECK(free_slots(spec.kind) > 0, "no free slot of the requested kind");

  Running r;
  r.spec = spec;
  r.start = sim_.now();
  r.current_demand = spec.cpu_demand * noise_.demand_multiplier();
  r.last_sample = r.start;
  machine_.adjust_demand(r.current_demand);
  auto [it, inserted] = running_.emplace(attempt, std::move(r));
  EANT_ASSERT(inserted, "attempt id reused");

  if (spec.kind == TaskKind::kMap) {
    ++running_maps_;
  } else {
    ++running_reduces_;
  }
  audit_transition(job_tracker_, spec, machine_.id(), audit::TaskEvent::kLaunch);
  return it->second;
}

void TaskTracker::schedule_compute(Running& r, std::uint64_t attempt,
                                   Seconds duration, Seconds fail_after) {
  r.compute_start = sim_.now();
  r.nominal_duration = duration;
  r.fails = fail_after > 0.0 && fail_after < duration;
  r.event_work = r.fails ? fail_after : duration;
  r.stretch = machine_.stretch_for(r.spec.cpu_ref_seconds, r.spec.io_mb);
  r.last_rescale = sim_.now();
  r.work_done = 0.0;
  // stretch is the literal 1.0 on a healthy machine, so event_work * stretch
  // is bit-identical to the pre-fail-slow schedule there.
  r.completion_event = sim_.schedule_after(
      r.event_work * r.stretch, [this, attempt] { end_attempt(attempt); });
}

void TaskTracker::start_task(const TaskSpec& spec, Seconds duration,
                             bool data_local, Seconds fail_after) {
  EANT_CHECK(duration > 0.0, "task duration must be positive");
  const std::uint64_t attempt = next_attempt_id_++;
  Running& r = occupy_slot(spec, attempt);
  r.data_local = data_local;
  r.locality = data_local ? Locality::kNodeLocal : Locality::kOffRack;
  schedule_compute(r, attempt, duration, fail_after);
}

void TaskTracker::start_fetching_task(const TaskSpec& spec, Locality locality,
                                      std::function<void()> abort_transfer) {
  const std::uint64_t attempt = next_attempt_id_++;
  Running& r = occupy_slot(spec, attempt);
  r.data_local = locality == Locality::kNodeLocal;
  r.locality = locality;
  r.fetching = true;
  r.abort_transfer = std::move(abort_transfer);
}

void TaskTracker::begin_compute(JobId job, TaskKind kind, TaskIndex index,
                                Seconds duration, Seconds fail_after) {
  EANT_CHECK(duration > 0.0, "task duration must be positive");
  const std::uint64_t attempt = find_attempt(job, kind, index);
  EANT_CHECK(attempt != 0, "begin_compute for an attempt not running here");
  Running& r = running_.at(attempt);
  EANT_CHECK(r.fetching, "attempt is not in its transfer phase");
  r.fetching = false;
  r.fetch_end = sim_.now();
  r.abort_transfer = nullptr;
  schedule_compute(r, attempt, duration, fail_after);
}

void TaskTracker::abort_transfer_if_fetching(Running& r) {
  if (!r.abort_transfer) return;
  // Move first: the callback must run exactly once even if the teardown it
  // triggers loops back into this tracker.
  auto abort = std::move(r.abort_transfer);
  r.abort_transfer = nullptr;
  abort();
}

void TaskTracker::close_sample_window(Running& r) {
  const Seconds dt = sim_.now() - r.last_sample;
  if (dt > 0.0) {
    // The task's effective share of the machine: when aggregate demand
    // oversubscribes the cores, the OS time-slices and each process gets a
    // proportional share, so per-task utilisations sum to at most 1 — the
    // same clamping the machine's own power model applies.
    const double total =
        std::max(machine_.demand_cores(),
                 static_cast<double>(machine_.type().cores));
    const Utilization true_util = total <= 0.0 ? 0.0 : r.current_demand / total;
    r.samples.push_back(UtilSample{dt, noise_.measured(true_util)});
    r.last_sample = sim_.now();
  }
}

double TaskTracker::work_now(const Running& r) const {
  if (r.compute_start < 0.0) return 0.0;
  return r.work_done + (sim_.now() - r.last_rescale) / r.stretch;
}

void TaskTracker::set_perf_factors(double cpu, double io) {
  machine_.set_perf_factors(cpu, io);
  const Seconds now = sim_.now();
  for (auto& [attempt, r] : running_) {
    if (r.compute_start < 0.0) continue;  // fetching: stretch applies later
    const double new_stretch =
        machine_.stretch_for(r.spec.cpu_ref_seconds, r.spec.io_mb);
    if (approx_equal(new_stretch, r.stretch)) continue;
    // Bank the work done at the old stretch, then reschedule the pending
    // event for the remaining nominal work at the new one — the same
    // event-deterministic re-rate the fabric applies to flows.
    r.work_done += (now - r.last_rescale) / r.stretch;
    r.last_rescale = now;
    r.stretch = new_stretch;
    sim_.cancel(r.completion_event);
    const Seconds remaining =
        std::max(r.event_work - r.work_done, 0.0) * new_stretch;
    const std::uint64_t id = attempt;
    r.completion_event =
        sim_.schedule_after(remaining, [this, id] { end_attempt(id); });
  }
  if (audit::InvariantAuditor* auditor = job_tracker_.auditor()) {
    audit::Fnv1a key;
    key.mix(static_cast<std::uint64_t>(machine_.id()));
    key.mix(cpu);
    key.mix(io);
    auditor->record(audit::Record::kPerfState, key.value());
  }
}

std::vector<double> TaskTracker::progress_rate_samples() const {
  std::vector<double> rates;
  const Seconds now = sim_.now();
  for (const auto& [id, r] : running_) {
    if (r.compute_start < 0.0) continue;
    const Seconds elapsed = now - r.compute_start;
    if (elapsed <= 0.0) continue;
    rates.push_back(work_now(r) / elapsed);
  }
  return rates;
}

double TaskTracker::running_progress(JobId job, TaskKind kind,
                                     TaskIndex index) const {
  const std::uint64_t attempt = find_attempt(job, kind, index);
  if (attempt == 0) return -1.0;
  const Running& r = running_.at(attempt);
  if (r.compute_start < 0.0 || r.nominal_duration <= 0.0) return 0.0;
  return std::clamp(work_now(r) / r.nominal_duration, 0.0, 1.0);
}

bool TaskTracker::heartbeat() {
  // First close the elapsed utilisation window for every running task (the
  // effective-share computation must see the old aggregate demand), then
  // redraw each task's true demand for the next window (transient noise).
  for (auto& [id, r] : running_) {
    close_sample_window(r);
  }
  // Audit: integrated nominal work never decreases, under any sequence of
  // slowdown/recovery re-rates.
  if (audit::InvariantAuditor* auditor = job_tracker_.auditor()) {
    for (auto& [id, r] : running_) {
      if (r.compute_start < 0.0) continue;
      const double w = work_now(r);
      if (w + 1e-9 < r.last_progress) {
        auditor->report_violation(
            "progress-monotonic", audit::Severity::kError,
            "task progress went backwards on machine " +
                std::to_string(machine_.id()));
      }
      r.last_progress = w;
    }
  }
  for (auto& [id, r] : running_) {
    const double next_demand = r.spec.cpu_demand * noise_.demand_multiplier();
    machine_.adjust_demand(next_demand - r.current_demand);
    r.current_demand = next_demand;
  }
  // Offer free slots to the JobTracker (the scheduler fills them).
  job_tracker_.handle_heartbeat(*this);
  return true;
}

TaskReport TaskTracker::make_report(Running& r) {
  TaskReport report;
  report.spec = r.spec;
  report.machine = machine_.id();
  report.start = r.start;
  report.finish = sim_.now();
  report.data_local = r.data_local;
  report.locality = r.locality;
  if (r.fetch_end >= 0.0) {
    report.transfer_seconds = r.fetch_end - r.start;
  } else if (r.fetching) {
    report.transfer_seconds = sim_.now() - r.start;  // killed mid-transfer
  }
  report.samples = std::move(r.samples);
  return report;
}

void TaskTracker::release_slot(TaskKind kind) {
  if (kind == TaskKind::kMap) {
    --running_maps_;
  } else {
    --running_reduces_;
  }
}

// Audit: when the scheduled compute event fires, the nominal work
// integrated across every re-rate must equal the work the event was
// scheduled for — the service-time re-estimation consistency invariant.
void TaskTracker::check_work_integral(const Running& r) {
  audit::InvariantAuditor* auditor = job_tracker_.auditor();
  if (!auditor || r.compute_start < 0.0) return;
  const double w = work_now(r);
  const double tol = 1e-6 * std::max(r.event_work, 1.0);
  if (std::abs(w - r.event_work) > tol) {
    auditor->report_violation(
        "work-integral", audit::Severity::kError,
        "attempt finished with integrated work " + std::to_string(w) +
            " against scheduled " + std::to_string(r.event_work) +
            " on machine " + std::to_string(machine_.id()));
  }
}

void TaskTracker::end_attempt(std::uint64_t attempt_id) {
  auto it = running_.find(attempt_id);
  EANT_ASSERT(it != running_.end(), "end of an unknown attempt");
  Running& r = it->second;
  const bool failed = r.fails;
  check_work_integral(r);
  close_sample_window(r);
  machine_.adjust_demand(-r.current_demand);
  TaskReport report = make_report(r);
  release_slot(r.spec.kind);
  running_.erase(it);

  // A report the master will fence (down, or this tracker not yet
  // re-registered) gets its lifecycle audit event at orphan resolution
  // instead — exactly one terminal event per launch either way.
  if (job_tracker_.accepts_reports(machine_.id())) {
    audit_transition(job_tracker_, report.spec, machine_.id(),
                     failed ? audit::TaskEvent::kFail
                            : audit::TaskEvent::kFinish);
  }
  if (failed) {
    job_tracker_.handle_task_failure(std::move(report));
    return;
  }
  ++(report.spec.kind == TaskKind::kMap ? completed_maps_
                                        : completed_reduces_);
  job_tracker_.handle_completion(std::move(report));
}

std::uint64_t TaskTracker::find_attempt(JobId job, TaskKind kind,
                                        TaskIndex index) const {
  for (const auto& [id, r] : running_) {
    if (r.spec.job == job && r.spec.kind == kind && r.spec.index == index) {
      return id;
    }
  }
  return 0;
}

bool TaskTracker::is_running(JobId job, TaskKind kind, TaskIndex index) const {
  return find_attempt(job, kind, index) != 0;
}

std::vector<TaskTracker::AttemptInfo> TaskTracker::running_attempts() const {
  std::vector<AttemptInfo> out;
  out.reserve(running_.size());
  for (const auto& [id, r] : running_) {
    out.push_back(AttemptInfo{r.spec, r.start});
  }
  return out;
}

bool TaskTracker::cancel_task(JobId job, TaskKind kind, TaskIndex index) {
  const std::uint64_t attempt = find_attempt(job, kind, index);
  if (attempt == 0) return false;
  auto it = running_.find(attempt);
  Running& r = it->second;
  // Not kill_attempt: no report is produced, so the sample window stays
  // open (closing it would draw measurement noise).
  abort_transfer_if_fetching(r);
  sim_.cancel(r.completion_event);
  machine_.adjust_demand(-r.current_demand);
  const TaskSpec spec = r.spec;
  release_slot(kind);
  running_.erase(it);
  audit_transition(job_tracker_, spec, machine_.id(), audit::TaskEvent::kKill);
  return true;
}

TaskReport TaskTracker::kill_attempt(Running& r) {
  // The transfer aborts first: the fabric's abort record precedes the kKill
  // record in the audited stream.
  abort_transfer_if_fetching(r);
  sim_.cancel(r.completion_event);
  // The partial work stays measurable: close the current sample window
  // before releasing the demand.
  close_sample_window(r);
  machine_.adjust_demand(-r.current_demand);
  release_slot(r.spec.kind);
  audit_transition(job_tracker_, r.spec, machine_.id(),
                   audit::TaskEvent::kKill);
  return make_report(r);
}

std::optional<TaskReport> TaskTracker::preempt_task(JobId job, TaskKind kind,
                                                    TaskIndex index) {
  const std::uint64_t attempt = find_attempt(job, kind, index);
  if (attempt == 0) return std::nullopt;
  auto it = running_.find(attempt);
  TaskReport report = kill_attempt(it->second);
  running_.erase(it);
  return report;
}

std::vector<TaskReport> TaskTracker::cancel_job(JobId job) {
  std::vector<TaskReport> killed;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->second.spec.job != job) {
      ++it;
      continue;
    }
    killed.push_back(kill_attempt(it->second));
    it = running_.erase(it);
  }
  return killed;
}

void TaskTracker::crash() {
  EANT_CHECK(alive_, "TaskTracker is already down");
  alive_ = false;
  sim_.cancel(heartbeat_event_);

  // Every running attempt dies with the machine; releasing their demand lets
  // the machine power down.
  std::vector<TaskReport> killed;
  killed.reserve(running_.size());
  for (auto& [id, r] : running_) killed.push_back(kill_attempt(r));
  running_.clear();
  machine_.set_up(false);

  // Accounting + deferred-requeue bookkeeping only: the JobTracker's
  // *protocol* reaction waits for heartbeat expiry (or the rejoin).
  job_tracker_.record_crash_casualties(machine_.id(), std::move(killed));
}

void TaskTracker::restart() {
  EANT_CHECK(!alive_, "TaskTracker is already up");
  alive_ = true;
  machine_.set_up(true);
  start_heartbeat(heartbeat_);
}

}  // namespace eant::mr
