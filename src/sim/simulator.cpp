#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace eant::sim {
namespace {

/// Heap order for std::push_heap/pop_heap: the earliest (time, seq) on top.
struct Later {
  template <typename Node>
  bool operator()(const Node& a, const Node& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Removes the run's consumed prefix once it is more than half the run, so
/// the nodes moved never outnumber the pops since the last trim; the
/// capacity stays.
template <typename Node>
void trim_run(std::vector<Node>& run, std::size_t& head) {
  if (2 * head <= run.size()) return;
  run.erase(run.begin(), run.begin() + static_cast<std::ptrdiff_t>(head));
  head = 0;
}

}  // namespace

EventId Simulator::schedule_at(Seconds t, std::function<void()> fn) {
  EANT_CHECK(t >= now_, "cannot schedule in the past");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  const EventId id = push_new(t, 0.0, std::move(fn), nullptr);
  if (observer_) observer_->on_event_scheduled(t, id);
  return id;
}

EventId Simulator::schedule_periodic(Seconds interval,
                                     std::function<bool()> fn,
                                     Seconds first_delay) {
  EANT_CHECK(interval > 0.0, "periodic interval must be positive");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  if (first_delay < 0.0) first_delay = interval;
  const EventId id =
      push_new(now_ + first_delay, interval, nullptr, std::move(fn));
  if (observer_) observer_->on_event_scheduled(now_ + first_delay, id);
  return id;
}

EventId Simulator::schedule_lazy(std::function<Seconds()> when,
                                 std::function<void()> fn) {
  EANT_CHECK(static_cast<bool>(when), "event time callback must be set");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  // The id, seq and slot push_new would take, without a node yet.  These
  // lines repeat push_new's rather than share a helper, so schedule_at's
  // path compiles as before.
  const EventId id = state_.size();
  state_.push_back(State::kPending);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    EANT_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.id = id;
  s.repeat_interval = 0.0;
  s.fn = std::move(fn);
  if (lazy_ == nullptr) lazy_ = std::make_unique<std::vector<Lazy>>();
  lazy_->push_back(Lazy{next_seq_++, slot, std::move(when)});
  if (observer_) observer_->on_event_scheduled(now_, id);
  return id;
}

EventId Simulator::push_new(Seconds t, Seconds repeat_interval,
                            std::function<void()> fn,
                            std::function<bool()> repeat_fn) {
  // Ids are issued in sequence from 1; each owns the next state byte.
  const EventId id = state_.size();
  state_.push_back(State::kPending);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    EANT_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.id = id;
  s.repeat_interval = repeat_interval;
  s.fn = std::move(fn);
  s.repeat_fn = std::move(repeat_fn);
  push_node(t, slot);
  return id;
}

void Simulator::push_node(Seconds t, std::uint32_t slot) {
  const Node node{t, next_seq_++, slot};
  // seq only grows, so a node not before the run's last time sorts after
  // every node in the run.  A drained run is empty (trim_run) and takes
  // any node.
  if (run_.empty() || t >= run_.back().time) {
    run_.push_back(node);
    return;
  }
  heap_.push_back(node);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::resolve_lazy() {
  std::vector<Lazy>& lazy = *lazy_;
  for (Lazy& event : lazy) {
    Slot& slot = slots_[event.slot];
    State& state = state_[slot.id];
    if (state == State::kCancelled) {
      state = State::kDone;
      --cancelled_queued_;
      slot.fn = nullptr;
      free_slots_.push_back(event.slot);
      continue;
    }
    const std::size_t issued = state_.size();
    const std::size_t cancelled = cancelled_queued_;
    const Seconds t = event.when();
    EANT_CHECK(state_.size() == issued && cancelled_queued_ == cancelled,
               "a lazy event's time callback must not schedule or cancel");
    EANT_CHECK(t >= now_, "cannot schedule in the past");
    // The node's seq can be older than nodes pushed since, so unlike
    // push_node the run's append test compares (time, seq).
    const Node node{t, event.seq, event.slot};
    if (run_.empty() || !Later{}(run_.back(), node)) {
      run_.push_back(node);
    } else {
      heap_.push_back(node);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }
  lazy.clear();
}

std::optional<Simulator::Node> Simulator::pop_earliest(Seconds limit) {
  const bool run_first =
      run_head_ < run_.size() &&
      (heap_.empty() || Later{}(heap_.front(), run_[run_head_]));
  if (run_first) {
    const Node node = run_[run_head_];
    if (node.time > limit) return std::nullopt;
    ++run_head_;
    trim_run(run_, run_head_);
    return node;
  }
  if (heap_.empty() || heap_.front().time > limit) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Node node = heap_.back();
  heap_.pop_back();
  return node;
}

std::optional<Simulator::Node> Simulator::pop_live(Seconds limit) {
  // Lazy events scheduled outside any event get their time before the pop.
  if (lazy_ != nullptr && !lazy_->empty()) resolve_lazy();
  while (const std::optional<Node> popped = pop_earliest(limit)) {
    const Node node = *popped;
    State& state = state_[slots_[node.slot].id];
    if (state != State::kCancelled) return node;
    state = State::kDone;
    --cancelled_queued_;
    // Release the captures now, not when the slot is reused.
    slots_[node.slot].fn = nullptr;
    slots_[node.slot].repeat_fn = nullptr;
    free_slots_.push_back(node.slot);
  }
  return std::nullopt;
}

bool Simulator::step() {
  const std::optional<Node> node =
      pop_live(std::numeric_limits<Seconds>::infinity());
  if (!node) return false;
  execute(*node);
  return true;
}

void Simulator::execute(const Node& node) {
  EANT_ASSERT(node.time >= now_, "event queue went backwards");
  now_ = node.time;
  ++executed_;
  // The callback may schedule events and grow slots_, so it is moved out of
  // its slot before it runs and the slot is indexed afresh afterwards.
  Slot& slot = slots_[node.slot];
  const EventId id = slot.id;
  executing_id_ = id;
  if (observer_) observer_->on_event_executed(now_, id);
  if (slot.repeat_interval > 0.0) {
    std::function<bool()> fn = std::exchange(slot.repeat_fn, nullptr);
    const bool keep = fn();
    if (keep && state_[id] == State::kPending) {
      Slot& again = slots_[node.slot];
      again.repeat_fn = std::move(fn);
      const Seconds next_time = now_ + again.repeat_interval;
      push_node(next_time, node.slot);
      if (observer_) observer_->on_event_scheduled(next_time, id);
    } else {
      state_[id] = State::kDone;
      free_slots_.push_back(node.slot);
    }
  } else {
    // Done before it runs: cancelling its own id from inside is a no-op.
    std::function<void()> fn = std::exchange(slot.fn, nullptr);
    state_[id] = State::kDone;
    free_slots_.push_back(node.slot);
    fn();
  }
  executing_id_ = 0;
  // Time the lazy events the callback left scheduled while the clock is
  // still the callback's, so their cost stays with the event.
  if (lazy_ != nullptr && !lazy_->empty()) resolve_lazy();
}

void Simulator::run_until(Seconds t) {
  EANT_CHECK(t >= now_, "cannot run to the past");
  while (const std::optional<Node> node = pop_live(t)) execute(*node);
  now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace eant::sim
