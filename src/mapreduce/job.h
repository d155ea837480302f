// Per-job runtime state tracked by the JobTracker: task specs, pending
// queues with per-machine locality queues and their pending-entry counts,
// the start-ordered straggler index, progress counters and the per-machine
// assignment histogram used by Fig. 9, Tarazu and E-Ant's convergence
// tracking.

#pragma once

#include <compare>
#include <cstdint>
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

  /// True iff `machine`'s locality queue holds an entry of a pending map
  /// (one array read).  Throws PreconditionError once release_locality()
  /// ran.
  bool has_local_pending_map(cluster::MachineId machine) const;

  /// True iff the locality queue of `machine`'s rack holds an entry of a
  /// pending map (always false when the NameNode had a single flat rack).
  /// Throws PreconditionError once release_locality() ran.
  bool has_rack_local_pending_map(cluster::MachineId machine) const;

  /// Slots the job currently occupies (S_occ of Eq. 7).
  int occupied_slots() const;

  /// Picks a pending map for the machine, preferring node-local splits,
  /// then rack-local ones, then anything pending; the task transitions to
  /// Running.  Returns nothing when no map is pending.  `level_out` reports
  /// the locality of the returned split relative to the machine.
  std::optional<TaskIndex> claim_map(cluster::MachineId machine,
                                     Locality& level_out);

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

  /// Frees the locality queues, their counts and the reverse index once the
  /// job retired: no map of it is claimed again.  Later locality queries,
  /// map claims, map unclaims and reverts throw PreconditionError.
  void release_locality();

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

  /// Ends a chain in entries_ or holders_.
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// A locality queue: a FIFO of map indices linked through entries_, and
  /// the number of its live entries whose map is Pending.
  struct LocalityQueue {
    std::uint32_t head = kNone;  ///< oldest live entry
    std::uint32_t tail = kNone;  ///< newest live entry
    std::uint32_t pending = 0;
  };

  /// One queued map index and the next entry of its queue.
  struct QueueEntry {
    std::uint32_t map = 0;
    std::uint32_t next = kNone;
  };

  /// One record of a map's chain in the reverse index: `entries` live
  /// entries of the map sit in locality queue `queue`.
  struct Holder {
    std::uint32_t queue = 0;
    std::uint32_t entries = 0;
    std::uint32_t next = kNone;  ///< the map's next record
  };

  KindState& state(TaskKind kind);
  const KindState& state(TaskKind kind) const;
  std::optional<TaskIndex> pop_pending(KindState& ks);

  void check_locality() const;
  std::uint32_t rack_queue(cluster::MachineId machine) const {
    return static_cast<std::uint32_t>(num_machines_ + machine_rack_[machine]);
  }
  /// Pops locality queue `queue` until it yields a pending map, which it
  /// claims (stale entries are dropped, as the lazy cleanup always did).
  std::optional<TaskIndex> pop_local(std::uint32_t queue);
  /// Pending -> Running for a map, taking its entries out of the counts.
  void claim_map_index(TaskIndex index);
  /// Appends an entry of `map` to locality queue `queue`.
  void push_entry(std::uint32_t queue, TaskIndex map);
  /// The reverse-index record of (map, queue), created empty if missing.
  Holder& holder(std::uint32_t queue, TaskIndex map);
  /// Adds every live queue entry of the map to the pending counts (it just
  /// became Pending) or removes them (it just left Pending).
  void count_entries(TaskIndex map, bool pending);

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

  /// Locality queues: queue m < num_machines_ holds the maps with a replica
  /// on machine m, queue num_machines_ + r those with one in rack r.  Rack
  /// queues exist only when the NameNode reports more than one rack.  Lazily
  /// cleaned: entries may be stale once a map leaves Pending, and a rack
  /// queue holds a map once per replica in the rack.  Each queue's pending
  /// count is the answer the lazy scan gives, kept current by every pop,
  /// push and status change.
  std::vector<LocalityQueue> queues_;
  std::vector<std::size_t> machine_rack_;  ///< empty when racks are inactive
  /// Every entry ever queued, all queues in one arena (popped ones stay
  /// behind until release_locality), so a queue owns no heap of its own.
  std::vector<QueueEntry> entries_;
  /// Reverse index: each map's chain of Holder records in one flat vector
  /// (no per-map allocation), headed by first_holder_[map].
  std::vector<Holder> holders_;
  std::vector<std::uint32_t> first_holder_;
  bool locality_released_ = false;

  bool failed_ = false;
  Seconds finish_time_ = 0.0;
  double map_task_seconds_ = 0.0;
  double shuffle_seconds_ = 0.0;
  double reduce_task_seconds_ = 0.0;
};

}  // namespace eant::mr
