#include "mapreduce/job.h"

#include <algorithm>

#include "common/error.h"

namespace eant::mr {

JobState::JobState(JobId id, workload::JobSpec spec, std::size_t num_machines)
    : id_(id), spec_(std::move(spec)), num_machines_(num_machines) {
  EANT_CHECK(num_machines >= 1, "job needs a cluster to run on");
  EANT_CHECK(spec_.input_mb > 0.0, "job input must be positive");
  EANT_CHECK(spec_.num_reduces >= 1, "job needs at least one reduce");
  map_state_.started_per_machine.assign(num_machines_, 0);
  map_state_.completed_per_machine.assign(num_machines_, 0);
  reduce_state_.started_per_machine.assign(num_machines_, 0);
  reduce_state_.completed_per_machine.assign(num_machines_, 0);
  local_maps_.resize(num_machines_);
}

void JobState::init_maps(const std::vector<hdfs::BlockId>& blocks,
                         const hdfs::NameNode& namenode) {
  EANT_CHECK(maps_.empty(), "maps already initialised");
  EANT_CHECK(!blocks.empty(), "job input has no blocks");
  const auto& p = profile();
  maps_.reserve(blocks.size());
  for (TaskIndex i = 0; i < blocks.size(); ++i) {
    const Megabytes split = namenode.block_size(blocks[i]);
    TaskSpec t;
    t.job = id_;
    t.index = i;
    t.kind = TaskKind::kMap;
    t.input_mb = split;
    t.block = blocks[i];
    t.cpu_ref_seconds = p.map_cpu_s_per_mb * split;
    t.io_mb = p.map_io_mb_per_mb * split;
    t.cpu_demand = p.map_cpu_demand;
    maps_.push_back(t);

    map_state_.pending_queue.push_back(i);
    for (cluster::MachineId m : namenode.locations(blocks[i])) {
      EANT_ASSERT(m < num_machines_, "block replica on unknown machine");
      local_maps_[m].push_back(i);
    }
  }

  // Rack-level index, active only under a multi-rack NameNode; duplicate
  // entries (two replicas in one rack) are harmless under lazy cleanup.
  if (namenode.num_racks() > 1) {
    machine_rack_.resize(num_machines_);
    for (cluster::MachineId m = 0; m < num_machines_; ++m)
      machine_rack_[m] = namenode.rack_of(m);
    rack_maps_.resize(namenode.num_racks());
    for (TaskIndex i = 0; i < blocks.size(); ++i)
      for (cluster::MachineId m : namenode.locations(blocks[i]))
        rack_maps_[namenode.rack_of(m)].push_back(i);
  }
  map_state_.status.assign(maps_.size(), TaskStatus::kPending);
  map_state_.speculative.assign(maps_.size(), false);
  map_state_.start_time.assign(maps_.size(), 0.0);
  map_state_.start_machine.assign(maps_.size(), 0);
  map_state_.failed_attempts.assign(maps_.size(), 0);
}

void JobState::init_reduces(std::vector<TaskSpec> reduces) {
  EANT_CHECK(!reduces_built_, "reduces already initialised");
  EANT_CHECK(!reduces.empty(), "job needs at least one reduce");
  reduces_ = std::move(reduces);
  reduce_state_.status.assign(reduces_.size(), TaskStatus::kPending);
  reduce_state_.speculative.assign(reduces_.size(), false);
  reduce_state_.start_time.assign(reduces_.size(), 0.0);
  reduce_state_.start_machine.assign(reduces_.size(), 0);
  reduce_state_.failed_attempts.assign(reduces_.size(), 0);
  for (TaskIndex i = 0; i < reduces_.size(); ++i) {
    reduce_state_.pending_queue.push_back(i);
  }
  reduces_built_ = true;
}

JobState::KindState& JobState::state(TaskKind kind) {
  return kind == TaskKind::kMap ? map_state_ : reduce_state_;
}

const JobState::KindState& JobState::state(TaskKind kind) const {
  return kind == TaskKind::kMap ? map_state_ : reduce_state_;
}

std::size_t JobState::pending(TaskKind kind) const {
  const auto& ks = state(kind);
  const std::size_t total =
      kind == TaskKind::kMap ? maps_.size() : reduces_.size();
  return total - ks.running - ks.done;
}

std::size_t JobState::running(TaskKind kind) const { return state(kind).running; }

std::size_t JobState::done(TaskKind kind) const { return state(kind).done; }

bool JobState::has_local_pending_map(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  for (TaskIndex i : local_maps_[machine]) {
    if (map_state_.status[i] == TaskStatus::kPending) return true;
  }
  return false;
}

bool JobState::has_rack_local_pending_map(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  if (rack_maps_.empty()) return false;
  for (TaskIndex i : rack_maps_[machine_rack_[machine]]) {
    if (map_state_.status[i] == TaskStatus::kPending) return true;
  }
  return false;
}

int JobState::occupied_slots() const {
  return static_cast<int>(map_state_.running + reduce_state_.running);
}

std::optional<TaskIndex> JobState::pop_pending(KindState& ks) {
  while (!ks.pending_queue.empty()) {
    const TaskIndex i = ks.pending_queue.front();
    ks.pending_queue.pop_front();
    if (ks.status[i] == TaskStatus::kPending) return i;
  }
  return std::nullopt;
}

void JobState::claim(KindState& ks, TaskIndex index) {
  ks.status[index] = TaskStatus::kRunning;
  ++ks.running;
  if (!ks.speculative[index]) index_insert(ks, index);
}

void JobState::index_insert(KindState& ks, TaskIndex index) {
  const RunningTask entry{ks.start_time[index], index};
  const auto it =
      std::lower_bound(ks.by_start.begin(), ks.by_start.end(), entry);
  EANT_ASSERT(it == ks.by_start.end() || *it != entry,
              "task already in the straggler index");
  ks.by_start.insert(it, entry);
}

void JobState::index_erase(KindState& ks, TaskIndex index) {
  const RunningTask entry{ks.start_time[index], index};
  const auto it =
      std::lower_bound(ks.by_start.begin(), ks.by_start.end(), entry);
  EANT_ASSERT(it != ks.by_start.end() && *it == entry,
              "task missing from the straggler index");
  ks.by_start.erase(it);
}

std::optional<TaskIndex> JobState::claim_map(cluster::MachineId machine,
                                             Locality& level_out) {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  // Node-local split first (lazy cleanup of stale queue entries).
  auto& locals = local_maps_[machine];
  while (!locals.empty()) {
    const TaskIndex i = locals.front();
    locals.pop_front();
    if (map_state_.status[i] == TaskStatus::kPending) {
      claim(map_state_, i);
      level_out = Locality::kNodeLocal;
      return i;
    }
  }
  // Then a split with a replica in this machine's rack.  (Exhausting the
  // node queue above proves no pending split is node-local here, so a hit
  // in the rack queue is genuinely rack-local.)
  if (!rack_maps_.empty()) {
    auto& rack = rack_maps_[machine_rack_[machine]];
    while (!rack.empty()) {
      const TaskIndex i = rack.front();
      rack.pop_front();
      if (map_state_.status[i] == TaskStatus::kPending) {
        claim(map_state_, i);
        level_out = Locality::kRackLocal;
        return i;
      }
    }
  }
  // Otherwise any pending split (remote read; off-rack when racks exist).
  if (auto i = pop_pending(map_state_)) {
    claim(map_state_, *i);
    level_out = Locality::kOffRack;
    return i;
  }
  return std::nullopt;
}

std::optional<TaskIndex> JobState::claim_map(cluster::MachineId machine,
                                             bool& local_out) {
  Locality level = Locality::kOffRack;
  const auto index = claim_map(machine, level);
  local_out = level == Locality::kNodeLocal;
  return index;
}

std::optional<TaskIndex> JobState::claim_reduce() {
  if (!reduces_built_) return std::nullopt;
  if (auto i = pop_pending(reduce_state_)) {
    claim(reduce_state_, *i);
    return i;
  }
  return std::nullopt;
}

void JobState::unclaim(TaskKind kind, TaskIndex index) {
  auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  EANT_CHECK(ks.status[index] == TaskStatus::kRunning,
             "only a running task can be unclaimed");
  if (!ks.speculative[index]) index_erase(ks, index);
  ks.status[index] = TaskStatus::kPending;
  EANT_ASSERT(ks.running > 0, "running-count underflow");
  --ks.running;
  ks.pending_queue.push_back(index);
}

void JobState::mark_started(TaskKind kind, TaskIndex index,
                            cluster::MachineId machine, Seconds now) {
  auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  EANT_CHECK(ks.status[index] == TaskStatus::kRunning,
             "task must be claimed before starting");
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  ++ks.started_per_machine[machine];
  // Keep the first attempt's start time and machine when a speculative twin
  // launches.
  if (!ks.speculative[index]) {
    index_erase(ks, index);
    ks.start_time[index] = now;
    ks.start_machine[index] = machine;
    index_insert(ks, index);
  }
}

void JobState::mark_done(const TaskReport& report) {
  auto& ks = state(report.spec.kind);
  const TaskIndex index = report.spec.index;
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  EANT_CHECK(ks.status[index] == TaskStatus::kRunning,
             "only a running task can complete");
  if (!ks.speculative[index]) index_erase(ks, index);
  ks.status[index] = TaskStatus::kDone;
  EANT_ASSERT(ks.running > 0, "running-count underflow");
  --ks.running;
  ++ks.done;
  ++ks.completed_per_machine[report.machine];

  ks.completed_duration_sum += report.duration();

  if (report.spec.kind == TaskKind::kMap) {
    map_task_seconds_ += report.duration();
  } else {
    // Measured transfer time when the fabric produced one, the legacy
    // scalar estimate otherwise.
    const Seconds transfer = report.transfer_seconds >= 0.0
                                 ? report.transfer_seconds
                                 : report.spec.shuffle_seconds;
    shuffle_seconds_ += transfer;
    reduce_task_seconds_ += report.duration() - transfer;
  }
}

Seconds JobState::task_start_time(TaskKind kind, TaskIndex index) const {
  const auto& ks = state(kind);
  EANT_CHECK(index < ks.start_time.size(), "task index out of range");
  EANT_CHECK(ks.status[index] != TaskStatus::kPending,
             "pending tasks have no start time");
  return ks.start_time[index];
}

cluster::MachineId JobState::task_machine(TaskKind kind, TaskIndex index) const {
  const auto& ks = state(kind);
  EANT_CHECK(index < ks.start_machine.size(), "task index out of range");
  EANT_CHECK(ks.status[index] != TaskStatus::kPending,
             "pending tasks have no machine");
  return ks.start_machine[index];
}

Seconds JobState::mean_completed_duration(TaskKind kind) const {
  const auto& ks = state(kind);
  if (ks.done == 0) return 0.0;
  return ks.completed_duration_sum / static_cast<double>(ks.done);
}

const std::vector<RunningTask>& JobState::running_by_start(
    TaskKind kind) const {
  return state(kind).by_start;
}

void JobState::mark_speculative(TaskKind kind, TaskIndex index) {
  auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  EANT_CHECK(ks.status[index] == TaskStatus::kRunning,
             "only a running task can be speculated");
  if (!ks.speculative[index]) index_erase(ks, index);
  ks.speculative[index] = true;
}

bool JobState::is_speculative(TaskKind kind, TaskIndex index) const {
  const auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  return ks.speculative[index];
}

void JobState::clear_speculative(TaskKind kind, TaskIndex index) {
  auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  // The surviving attempt re-enters the index under the original's start
  // time, which mark_started kept through the twin's launch.
  if (ks.speculative[index] && ks.status[index] == TaskStatus::kRunning) {
    index_insert(ks, index);
  }
  ks.speculative[index] = false;
}

int JobState::record_attempt_failure(TaskKind kind, TaskIndex index) {
  auto& ks = state(kind);
  EANT_CHECK(index < ks.failed_attempts.size(), "task index out of range");
  return ++ks.failed_attempts[index];
}

int JobState::failed_attempts(TaskKind kind, TaskIndex index) const {
  const auto& ks = state(kind);
  EANT_CHECK(index < ks.failed_attempts.size(), "task index out of range");
  return ks.failed_attempts[index];
}

void JobState::revert_done_map(TaskIndex index, Seconds duration,
                               const std::vector<cluster::MachineId>& replicas,
                               cluster::MachineId machine) {
  auto& ks = map_state_;
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  EANT_CHECK(ks.status[index] == TaskStatus::kDone,
             "only a completed map can be reverted");
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  ks.status[index] = TaskStatus::kPending;
  EANT_ASSERT(ks.done > 0, "done-count underflow");
  --ks.done;
  EANT_ASSERT(ks.completed_per_machine[machine] > 0,
              "completion histogram underflow");
  --ks.completed_per_machine[machine];
  ks.completed_duration_sum -= duration;
  ks.speculative[index] = false;
  ks.start_time[index] = 0.0;
  ks.pending_queue.push_back(index);
  for (cluster::MachineId m : replicas) {
    EANT_ASSERT(m < num_machines_, "block replica on unknown machine");
    local_maps_[m].push_back(index);
    if (!rack_maps_.empty()) rack_maps_[machine_rack_[m]].push_back(index);
  }
}

const TaskSpec& JobState::task(TaskKind kind, TaskIndex index) const {
  const auto& v = kind == TaskKind::kMap ? maps_ : reduces_;
  EANT_CHECK(index < v.size(), "task index out of range");
  return v[index];
}

TaskStatus JobState::status(TaskKind kind, TaskIndex index) const {
  const auto& ks = state(kind);
  EANT_CHECK(index < ks.status.size(), "task index out of range");
  return ks.status[index];
}

Megabytes JobState::expected_map_output_mb() const {
  Megabytes total = 0.0;
  const double ratio = profile().map_output_ratio;
  for (const auto& m : maps_) total += m.input_mb * ratio;
  return total;
}

const std::vector<std::size_t>& JobState::started_per_machine(
    TaskKind kind) const {
  return state(kind).started_per_machine;
}

const std::vector<std::size_t>& JobState::completed_per_machine(
    TaskKind kind) const {
  return state(kind).completed_per_machine;
}

}  // namespace eant::mr
