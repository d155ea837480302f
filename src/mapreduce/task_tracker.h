// TaskTracker: per-machine slave daemon.
//
// Runs tasks in map/reduce slots, heartbeats the JobTracker every 3 seconds
// (Hadoop's default, which the paper uses as the utilisation-sampling
// granularity for its energy model) and records the per-window CPU
// utilisation samples that E-Ant's task analyzer turns into per-task energy
// estimates.  True task demand is redrawn per heartbeat window by the noise
// model; the recorded samples additionally carry measurement error.
//
// Fault model: the daemon can crash() — every running attempt dies, the
// heartbeat stops and the machine powers down — and later restart().  The
// JobTracker learns about the crash only through the missing heartbeats
// (tracker expiry), exactly like real Hadoop; the partial work of killed
// attempts is reported to the JobTracker immediately for *accounting only*
// (the simulator's equivalent of reading the dead node's logs afterwards).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cluster/machine.h"
#include "common/locality.h"
#include "mapreduce/noise.h"
#include "mapreduce/task.h"
#include "sim/simulator.h"

namespace eant::mr {

class JobTracker;

/// Slave-side task executor bound to one Machine.
class TaskTracker {
 public:
  /// `heartbeat_phase` (in [0, heartbeat_interval)) staggers this tracker's
  /// heartbeat relative to its peers — real TaskTrackers are not
  /// synchronised, and a synchronised fleet would hand all work to whichever
  /// machines happen to be offered slots first.
  TaskTracker(sim::Simulator& sim, cluster::Machine& machine,
              JobTracker& job_tracker, NoiseModel& noise,
              Seconds heartbeat_interval, int map_slots, int reduce_slots,
              Seconds heartbeat_phase = 0.0);
  ~TaskTracker();

  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  cluster::Machine& machine() { return machine_; }
  cluster::MachineId machine_id() const { return machine_.id(); }

  int map_slots() const { return map_slots_; }
  int reduce_slots() const { return reduce_slots_; }
  int running(TaskKind kind) const;

  /// Free slots of the kind; 0 while the daemon is down.
  int free_slots(TaskKind kind) const;

  /// True while the daemon is running (heartbeating, accepting tasks).
  bool alive() const { return alive_; }

  /// Launches a task in a free slot; `duration` is the task's wall time as
  /// computed by the JobTracker.  Requires a free slot of the task's kind
  /// and a live daemon.  A positive `fail_after` makes the attempt die after
  /// that many seconds instead of completing (transient task failure); the
  /// JobTracker receives the failure via handle_task_failure.
  void start_task(const TaskSpec& spec, Seconds duration, bool data_local,
                  Seconds fail_after = 0.0);

  /// Occupies a slot for an attempt whose network-transfer phase (remote
  /// split read or shuffle fetch) is in flight on the fabric; no completion
  /// timer runs yet.  `abort_transfer` is invoked exactly once if the
  /// attempt is killed (cancel/crash) while still fetching, so the owner can
  /// tear down its flows.  Call begin_compute() once the last flow lands.
  void start_fetching_task(const TaskSpec& spec, Locality locality,
                           std::function<void()> abort_transfer);

  /// Ends the transfer phase of a fetching attempt: records the transfer
  /// time and schedules completion `duration` seconds from now (or a
  /// transient failure after `fail_after`, as in start_task).
  void begin_compute(JobId job, TaskKind kind, TaskIndex index,
                     Seconds duration, Seconds fail_after = 0.0);

  /// Kills a running attempt (speculative-execution support).  Returns
  /// false if the attempt already finished.  No report is produced.
  bool cancel_task(JobId job, TaskKind kind, TaskIndex index);

  /// Kills a running attempt for scheduler preemption and returns its
  /// partial-work report (the wasted-work/energy accounting input).  Same
  /// teardown as cancel_task — KILLED, not FAILED: no attempt budget is
  /// charged.  Returns nothing if the attempt is not running here.
  std::optional<TaskReport> preempt_task(JobId job, TaskKind kind,
                                         TaskIndex index);

  /// Kills every running attempt of the job (job-failure cleanup); returns
  /// the partial-work reports of the killed attempts.
  std::vector<TaskReport> cancel_job(JobId job);

  /// True iff the given attempt is still running here.
  bool is_running(JobId job, TaskKind kind, TaskIndex index) const;

  /// Machine crash: kills every running attempt, stops the heartbeat and
  /// powers the machine down.  The killed attempts' partial work is handed
  /// to the JobTracker for wasted-work accounting and later requeue (the
  /// JobTracker acts on it only once it *detects* the loss).
  void crash();

  /// Restart after repair: powers the machine up and resumes heartbeats.
  /// Slots start empty; the JobTracker learns of the rejoin from the first
  /// heartbeat.
  void restart();

  /// Fail-slow transition: updates the machine's dynamic performance
  /// multipliers and re-estimates every in-flight compute phase
  /// event-deterministically — the work done so far at the old stretch is
  /// integrated, the completion (or scheduled-failure) event is cancelled
  /// and rescheduled for the remaining work at the new stretch.  Tasks still
  /// in their network-transfer phase pick up the new stretch when compute
  /// begins.  No-op re-rates (unchanged stretch) leave events untouched.
  void set_perf_factors(double cpu, double io);

  /// Nominal-work progress rate of each running compute-phase attempt:
  /// (nominal seconds of work completed) / (wall seconds elapsed since
  /// compute began).  Exactly 1.0 on a healthy machine; ≈ the slowdown
  /// factor on a limping one.  Attempts still fetching or started this
  /// instant are skipped.  The JobTracker folds these into its per-node
  /// health score at every heartbeat.
  std::vector<double> progress_rate_samples() const;

  /// Fraction of the attempt's nominal duration completed, in [0, 1];
  /// 0 while fetching.  Returns -1 if the attempt is not running here.
  double running_progress(JobId job, TaskKind kind, TaskIndex index) const;

  Seconds heartbeat_interval() const { return heartbeat_; }

  /// Total tasks completed by this tracker (per kind); survives crashes.
  std::size_t completed(TaskKind kind) const;

  /// Identity and launch time of one in-flight attempt, as reported to a
  /// restarted JobTracker during re-registration (Hadoop's tracker status
  /// report): enough for the master to reconcile the attempt against its
  /// replayed checkpoint.
  struct AttemptInfo {
    TaskSpec spec;
    Seconds start = 0.0;
  };

  /// Every attempt currently running here, in attempt-id (launch) order.
  std::vector<AttemptInfo> running_attempts() const;

 private:
  struct Running {
    TaskSpec spec;
    Seconds start = 0.0;
    bool data_local = false;
    Locality locality = Locality::kOffRack;
    bool fetching = false;     // transfer phase in flight, no timer yet
    Seconds fetch_end = -1.0;  // transfer-phase end; <0 = not measured
    std::function<void()> abort_transfer;  // set only while fetching
    double current_demand = 0.0;
    Seconds last_sample = 0.0;
    std::vector<UtilSample> samples;
    sim::EventId completion_event = 0;  // completion or scheduled failure
    // Fail-slow re-estimation state (compute phase only).  `event_work` is
    // the nominal seconds of work until the scheduled event (the full
    // duration, or fail_after for a doomed attempt); `work_done` the nominal
    // work banked at previous stretches; `stretch` the wall-seconds-per-
    // nominal-second factor currently in force (exactly 1.0 healthy).
    Seconds compute_start = -1.0;  // <0 = compute not begun (fetching)
    Seconds nominal_duration = 0.0;
    Seconds event_work = 0.0;
    bool fails = false;  // scheduled event is a transient failure
    double stretch = 1.0;
    Seconds last_rescale = 0.0;
    double work_done = 0.0;
    double last_progress = 0.0;  // audit: progress must be monotonic
  };

  bool heartbeat();
  void start_heartbeat(Seconds first_delay);
  void schedule_compute(Running& r, std::uint64_t attempt, Seconds duration,
                        Seconds fail_after);
  double work_now(const Running& r) const;
  void check_work_integral(const Running& r);
  /// The attempt's scheduled event fired: it finished, or (when `fails`) it
  /// died of its transient fault.  Closes it and reports to the JobTracker.
  void end_attempt(std::uint64_t attempt_id);
  /// Kills a running attempt (transfer, pending event, demand, slot) and
  /// returns its partial-work report; the caller erases it from running_.
  TaskReport kill_attempt(Running& r);
  void close_sample_window(Running& r);
  void abort_transfer_if_fetching(Running& r);
  Running& occupy_slot(const TaskSpec& spec, std::uint64_t attempt);
  TaskReport make_report(Running& r);
  void release_slot(TaskKind kind);
  std::uint64_t find_attempt(JobId job, TaskKind kind, TaskIndex index) const;

  sim::Simulator& sim_;
  cluster::Machine& machine_;
  JobTracker& job_tracker_;
  NoiseModel& noise_;
  Seconds heartbeat_;
  int map_slots_;
  int reduce_slots_;
  int running_maps_ = 0;
  int running_reduces_ = 0;
  bool alive_ = true;
  std::size_t completed_maps_ = 0;
  std::size_t completed_reduces_ = 0;
  std::uint64_t next_attempt_id_ = 1;
  // std::map: heartbeat() draws per-task noise while iterating, so the
  // iteration order (attempt-id order here) is part of the deterministic
  // RNG-consumption sequence the audit digest certifies.
  std::map<std::uint64_t, Running> running_;
  sim::EventId heartbeat_event_;
};

}  // namespace eant::mr
