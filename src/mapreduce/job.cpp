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
}

void JobState::init_maps(const std::vector<hdfs::BlockId>& blocks,
                         const hdfs::NameNode& namenode) {
  EANT_CHECK(maps_.empty(), "maps already initialised");
  EANT_CHECK(!blocks.empty(), "job input has no blocks");
  EANT_CHECK(blocks.size() < kNone, "job has more maps than the index holds");
  const auto& p = profile();
  // Rack queues only under a multi-rack NameNode.
  const bool racked = namenode.num_racks() > 1;
  if (racked) {
    machine_rack_.resize(num_machines_);
    for (cluster::MachineId m = 0; m < num_machines_; ++m)
      machine_rack_[m] = namenode.rack_of(m);
  }
  queues_.resize(num_machines_ + (racked ? namenode.num_racks() : 0));
  first_holder_.assign(blocks.size(), kNone);
  std::size_t replicas = 0;
  for (hdfs::BlockId b : blocks) replicas += namenode.locations(b).size();
  entries_.reserve(racked ? 2 * replicas : replicas);
  holders_.reserve(racked ? 2 * replicas : replicas);
  map_state_.status.assign(blocks.size(), TaskStatus::kPending);

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
      push_entry(static_cast<std::uint32_t>(m), i);
      if (racked) push_entry(rack_queue(m), i);
    }
  }
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

void JobState::check_locality() const {
  EANT_CHECK(!locality_released_, "locality state of a retired job");
}

bool JobState::has_local_pending_map(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  check_locality();
  return queues_[machine].pending > 0;
}

bool JobState::has_rack_local_pending_map(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  check_locality();
  if (machine_rack_.empty()) return false;
  return queues_[rack_queue(machine)].pending > 0;
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

JobState::Holder& JobState::holder(std::uint32_t queue, TaskIndex map) {
  for (std::uint32_t h = first_holder_[map]; h != kNone;
       h = holders_[h].next) {
    if (holders_[h].queue == queue) return holders_[h];
  }
  holders_.push_back(Holder{queue, 0, first_holder_[map]});
  first_holder_[map] = static_cast<std::uint32_t>(holders_.size() - 1);
  return holders_.back();
}

void JobState::push_entry(std::uint32_t queue, TaskIndex map) {
  const auto e = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(QueueEntry{static_cast<std::uint32_t>(map), kNone});
  LocalityQueue& q = queues_[queue];
  (q.tail == kNone ? q.head : entries_[q.tail].next) = e;
  q.tail = e;
  ++holder(queue, map).entries;
  if (map_state_.status[map] == TaskStatus::kPending) ++q.pending;
}

void JobState::count_entries(TaskIndex map, bool pending) {
  for (std::uint32_t h = first_holder_[map]; h != kNone;
       h = holders_[h].next) {
    const Holder& e = holders_[h];
    std::uint32_t& count = queues_[e.queue].pending;
    if (pending) {
      count += e.entries;
    } else {
      EANT_ASSERT(count >= e.entries, "pending-entry count underflow");
      count -= e.entries;
    }
  }
}

void JobState::claim_map_index(TaskIndex index) {
  claim(map_state_, index);
  count_entries(index, false);
}

std::optional<TaskIndex> JobState::pop_local(std::uint32_t queue) {
  LocalityQueue& q = queues_[queue];
  while (q.head != kNone) {
    const QueueEntry e = entries_[q.head];
    q.head = e.next;
    if (q.head == kNone) q.tail = kNone;
    Holder& h = holder(queue, e.map);
    EANT_ASSERT(h.entries > 0, "popped entry missing from the reverse index");
    --h.entries;
    if (map_state_.status[e.map] == TaskStatus::kPending) {
      --q.pending;
      claim_map_index(e.map);
      return TaskIndex{e.map};
    }
  }
  return std::nullopt;
}

std::optional<TaskIndex> JobState::claim_map(cluster::MachineId machine,
                                             Locality& level_out) {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  check_locality();
  // Node-local split first (lazy cleanup of stale queue entries).
  if (auto i = pop_local(static_cast<std::uint32_t>(machine))) {
    level_out = Locality::kNodeLocal;
    return i;
  }
  // Then a split with a replica in this machine's rack.  (Exhausting the
  // node queue above proves no pending split is node-local here, so a hit
  // in the rack queue is genuinely rack-local.)
  if (!machine_rack_.empty()) {
    if (auto i = pop_local(rack_queue(machine))) {
      level_out = Locality::kRackLocal;
      return i;
    }
  }
  // Otherwise any pending split (remote read; off-rack when racks exist).
  if (auto i = pop_pending(map_state_)) {
    claim_map_index(*i);
    level_out = Locality::kOffRack;
    return i;
  }
  return std::nullopt;
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
  if (kind == TaskKind::kMap) check_locality();
  if (!ks.speculative[index]) index_erase(ks, index);
  ks.status[index] = TaskStatus::kPending;
  EANT_ASSERT(ks.running > 0, "running-count underflow");
  --ks.running;
  ks.pending_queue.push_back(index);
  // Entries other machines' queues still hold become live again; the one a
  // node or rack claim popped stays gone.
  if (kind == TaskKind::kMap) count_entries(index, true);
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
  check_locality();
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
  count_entries(index, true);  // stale entries of the map are live again
  for (cluster::MachineId m : replicas) {
    EANT_ASSERT(m < num_machines_, "block replica on unknown machine");
    push_entry(static_cast<std::uint32_t>(m), index);
    if (!machine_rack_.empty()) push_entry(rack_queue(m), index);
  }
}

void JobState::release_locality() {
  // Swap with empties: clear() would keep the capacity.
  std::vector<LocalityQueue>().swap(queues_);
  std::vector<std::size_t>().swap(machine_rack_);
  std::vector<QueueEntry>().swap(entries_);
  std::vector<Holder>().swap(holders_);
  std::vector<std::uint32_t>().swap(first_holder_);
  locality_released_ = true;
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
