// Task-assignment policy interface.
//
// Hadoop (and this simulator) uses a pull model: when a TaskTracker
// heartbeats with free slots, the JobTracker asks the scheduler which job
// should receive the slot; the JobTracker then picks a concrete task within
// that job, preferring data-local splits (Hadoop's own mechanics).  All
// baseline schedulers (FIFO, Fair, Tarazu) and E-Ant implement this
// interface.

#pragma once

#include <optional>
#include <string>

#include "cluster/machine.h"
#include "mapreduce/overload.h"
#include "mapreduce/task.h"

namespace eant::mr {

class JobTracker;

/// Pluggable task-assignment policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once, before any job is submitted.
  virtual void attach(JobTracker& job_tracker) { (void)job_tracker; }

  /// Job lifecycle notifications.
  virtual void on_job_submitted(JobId job) { (void)job; }
  virtual void on_job_finished(JobId job) { (void)job; }

  /// Task-level feedback delivered with each heartbeat batch — the signal
  /// E-Ant's task analyzer consumes (Sec. III-A).
  virtual void on_task_completed(const TaskReport& report) { (void)report; }

  /// Fault notifications.  The JobTracker declares a machine's tracker lost
  /// when its heartbeats expire or it is blacklisted; `rejoined` fires when
  /// a restarted tracker heartbeats again (or the blacklist lapses).  While
  /// lost, the machine is never offered to select_job, but schedulers that
  /// keep per-machine state (E-Ant's pheromone rows) should decay or drop it
  /// so stale attraction does not survive the outage.
  virtual void on_tracker_lost(cluster::MachineId machine) { (void)machine; }
  virtual void on_tracker_rejoined(cluster::MachineId machine) {
    (void)machine;
  }

  /// A task attempt died on the machine (transient failure, not node loss).
  virtual void on_task_failed(const TaskSpec& spec,
                              cluster::MachineId machine) {
    (void)spec;
    (void)machine;
  }

  /// The JobTracker restarted after a control-plane crash.  In-memory
  /// scheduler state not covered by the master's checkpoint died with the
  /// old process; schedulers that keep learned per-machine state (E-Ant's
  /// pheromone table) decide here whether to restore a snapshot or reseed.
  virtual void on_master_recovered() {}

  /// The overload detector changed state (admission.h).  Schedulers react
  /// by shedding their own optional work under Saturated/Critical — Fair
  /// built with a locality delay drops its waits, Capacity pauses
  /// preemption churn, E-Ant skips decline rounds — and restore it as the
  /// state decays back.  Only fired when the admission subsystem is
  /// enabled, so schedulers that consume RNG on this path stay
  /// digest-neutral by default.
  virtual void on_overload_state(OverloadState state) { (void)state; }

  /// A reduce-side shuffle fetch of `source`'s map output failed (link
  /// fault, rack partition or transient error) — the machine is alive but
  /// its data is unreachable.  Schedulers with per-machine state can steer
  /// new work away from the degraded path.
  virtual void on_fetch_failed(JobId job, cluster::MachineId source) {
    (void)job;
    (void)source;
  }

  /// Chooses the job that should occupy one free `kind` slot on `machine`,
  /// or nothing to leave the slot idle this heartbeat.  Only jobs with a
  /// pending task of `kind` are valid choices.
  virtual std::optional<JobId> select_job(cluster::MachineId machine,
                                          TaskKind kind) = 0;

  /// Human-readable policy name ("Fair", "Tarazu", "E-Ant", ...).
  virtual std::string name() const = 0;
};

}  // namespace eant::mr
