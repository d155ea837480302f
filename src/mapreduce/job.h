// Per-job runtime state tracked by the JobTracker: task specs, pending
// queues with per-machine locality indexes, the start-ordered straggler
// index, progress counters and the per-machine assignment histogram used by
// Fig. 9, Tarazu and E-Ant's convergence tracking.

#pragma once

#include <compare>
#include <optional>
#include <vector>

#include "cluster/machine.h"
#include "common/locality.h"
#include "hdfs/namenode.h"
#include "mapreduce/index_fifo.h"
#include "mapreduce/task.h"
#include "workload/apps.h"
#include "workload/job_spec.h"

namespace eant::mr {

/// Lifecycle status of one task.
enum class TaskStatus { kPending, kRunning, kDone };

/// One entry of a job's straggler index: a Running task without a
/// speculative twin, keyed by its (first) attempt's start time.  Ordered by
/// start time, then index.
struct RunningTask {
  Seconds start = 0.0;
  TaskIndex index = 0;
  auto operator<=>(const RunningTask&) const = default;
};

/// Mutable state of a submitted job.  Owned and mutated by the JobTracker;
/// schedulers receive const access.
class JobState {
 public:
  JobState(JobId id, workload::JobSpec spec, std::size_t num_machines);

  JobId id() const { return id_; }
  const workload::JobSpec& spec() const { return spec_; }
  const workload::AppProfile& profile() const {
    return workload::profile_for(spec_.app);
  }

  /// Builds one map task per HDFS block of the input file.
  void init_maps(const std::vector<hdfs::BlockId>& blocks,
                 const hdfs::NameNode& namenode);

  /// Installs reduce specs once the shuffle volume is known.
  void init_reduces(std::vector<TaskSpec> reduces);

  // --- pending-task queries -------------------------------------------------

  std::size_t num_maps() const { return maps_.size(); }
  std::size_t num_reduces() const { return reduces_.size(); }
  bool reduces_built() const { return reduces_built_; }

  std::size_t pending(TaskKind kind) const;
  std::size_t running(TaskKind kind) const;
  std::size_t done(TaskKind kind) const;

  bool has_pending(TaskKind kind) const { return pending(kind) > 0; }

  /// True iff a pending map's input block has a replica on `machine`.
  bool has_local_pending_map(cluster::MachineId machine) const;

  /// True iff a pending map's input block has a replica in `machine`'s rack
  /// (always false when the NameNode had a single flat rack).
  bool has_rack_local_pending_map(cluster::MachineId machine) const;

  /// Slots the job currently occupies (S_occ of Eq. 7).
  int occupied_slots() const;

  /// Picks a pending map for the machine, preferring node-local splits,
  /// then rack-local ones, then anything pending; the task transitions to
  /// Running.  Returns nothing when no map is pending.  `level_out` reports
  /// the locality of the returned split relative to the machine.
  std::optional<TaskIndex> claim_map(cluster::MachineId machine,
                                     Locality& level_out);

  /// Boolean-locality convenience wrapper (local == node-local).
  std::optional<TaskIndex> claim_map(cluster::MachineId machine,
                                     bool& local_out);

  /// Picks any pending reduce; the task transitions to Running.
  std::optional<TaskIndex> claim_reduce();

  /// Reverts a Running task to Pending: its attempt died and the task
  /// re-queues for another one.
  void unclaim(TaskKind kind, TaskIndex index);

  // --- lifecycle transitions (JobTracker only) -------------------------------

  void mark_started(TaskKind kind, TaskIndex index, cluster::MachineId machine,
                    Seconds now);
  void mark_done(const TaskReport& report);

  /// Flags a running task as having a speculative duplicate attempt
  /// (LATE-style speculation).  Requires the task to be Running.
  void mark_speculative(TaskKind kind, TaskIndex index);
  bool is_speculative(TaskKind kind, TaskIndex index) const;

  /// Clears the speculative flag: one of the twin attempts died and the
  /// survivor continues as the task's only attempt.
  void clear_speculative(TaskKind kind, TaskIndex index);

  // --- fault tolerance ----------------------------------------------------------

  /// Counts one failed attempt of the task; returns the new total.  The
  /// JobTracker fails the job once this reaches max_attempts (Hadoop's
  /// mapred.*.max.attempts semantics).  Attempts killed by machine loss are
  /// *not* counted — Hadoop distinguishes KILLED from FAILED.
  int record_attempt_failure(TaskKind kind, TaskIndex index);
  int failed_attempts(TaskKind kind, TaskIndex index) const;

  /// Reverts a completed map whose output was lost with its machine's local
  /// disk: Done -> Pending, undoing the completion counters (`duration` and
  /// `machine` are the lost completion's).  `replicas` re-seeds the
  /// data-locality index for the re-execution.
  void revert_done_map(TaskIndex index, Seconds duration,
                       const std::vector<cluster::MachineId>& replicas,
                       cluster::MachineId machine);

  /// Marks the whole job failed (a task ran out of attempts).  A failed job
  /// never completes; the JobTracker retires it.
  void set_failed() { failed_ = true; }
  bool failed() const { return failed_; }

  bool all_maps_done() const { return done(TaskKind::kMap) == maps_.size(); }
  bool complete() const {
    return !failed_ && reduces_built_ && all_maps_done() &&
           done(TaskKind::kReduce) == reduces_.size();
  }

  // --- data access ------------------------------------------------------------

  const TaskSpec& task(TaskKind kind, TaskIndex index) const;
  TaskStatus status(TaskKind kind, TaskIndex index) const;

  /// Start time of a Running/Done task (its first attempt).
  Seconds task_start_time(TaskKind kind, TaskIndex index) const;

  /// Machine running the task's *original* attempt (a speculative twin's
  /// launch does not overwrite it) — the basis of the per-node speculation
  /// cap.  Requires the task to have started.
  cluster::MachineId task_machine(TaskKind kind, TaskIndex index) const;

  /// Mean duration of completed tasks of the kind (0 when none completed) —
  /// the straggler threshold basis for LATE-style speculation.
  Seconds mean_completed_duration(TaskKind kind) const;

  /// The straggler index: every task of the kind that is Running and not
  /// speculative, as (task_start_time, index), oldest first.  A claim enters
  /// the index under the start time the task last held and is re-keyed when
  /// its attempt starts (the JobTracker starts every claim in the same call).
  const std::vector<RunningTask>& running_by_start(TaskKind kind) const;

  /// Expected total map-output volume (input x output ratio), used to size
  /// the shuffle when building reduces.
  Megabytes expected_map_output_mb() const;

  /// Tasks of the given kind started on each machine since submission
  /// (indexed by MachineId) — the Fig. 9 histogram.
  const std::vector<std::size_t>& started_per_machine(TaskKind kind) const;

  /// Completed tasks per machine.
  const std::vector<std::size_t>& completed_per_machine(TaskKind kind) const;

  // --- timing & phase accounting ---------------------------------------------

  Seconds submit_time() const { return spec_.submit_time; }
  Seconds finish_time() const { return finish_time_; }
  void set_finish_time(Seconds t) { finish_time_ = t; }
  Seconds completion_time() const { return finish_time_ - spec_.submit_time; }

  /// Accumulated task-seconds per phase (map work, shuffle transfer,
  /// reduce work) — the Fig. 1(d) breakdown inputs.
  double map_task_seconds() const { return map_task_seconds_; }
  double shuffle_seconds() const { return shuffle_seconds_; }
  double reduce_task_seconds() const { return reduce_task_seconds_; }

 private:
  struct KindState {
    IndexFifo pending_queue;
    std::vector<TaskStatus> status;
    std::size_t running = 0;
    std::size_t done = 0;
    std::vector<std::size_t> started_per_machine;
    std::vector<std::size_t> completed_per_machine;
    std::vector<bool> speculative;
    std::vector<Seconds> start_time;
    std::vector<cluster::MachineId> start_machine;
    std::vector<int> failed_attempts;
    double completed_duration_sum = 0.0;
    std::vector<RunningTask> by_start;  ///< sorted; see running_by_start()
  };

  KindState& state(TaskKind kind);
  const KindState& state(TaskKind kind) const;
  std::optional<TaskIndex> pop_pending(KindState& ks);

  /// Pending -> Running, entering the straggler index unless speculative.
  static void claim(KindState& ks, TaskIndex index);
  static void index_insert(KindState& ks, TaskIndex index);
  static void index_erase(KindState& ks, TaskIndex index);

  JobId id_;
  workload::JobSpec spec_;
  std::size_t num_machines_;

  std::vector<TaskSpec> maps_;
  std::vector<TaskSpec> reduces_;
  bool reduces_built_ = false;

  KindState map_state_;
  KindState reduce_state_;

  /// Per-machine queues of map indices whose split is local to the machine
  /// (lazily cleaned: entries may be stale once a task leaves Pending).
  std::vector<IndexFifo> local_maps_;

  /// Per-rack queues of map indices with a replica in the rack; only built
  /// when the NameNode reports more than one rack (same lazy cleanup).
  std::vector<IndexFifo> rack_maps_;
  std::vector<std::size_t> machine_rack_;  ///< empty when racks are inactive

  bool failed_ = false;
  Seconds finish_time_ = 0.0;
  double map_task_seconds_ = 0.0;
  double shuffle_seconds_ = 0.0;
  double reduce_task_seconds_ = 0.0;
};

}  // namespace eant::mr
