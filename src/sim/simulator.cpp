#include "sim/simulator.h"

#include <limits>
#include <utility>

namespace eant::sim {

EventId Simulator::schedule_at(Seconds t, std::function<void()> fn) {
  EANT_CHECK(t >= now_, "cannot schedule in the past");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  const EventId id = next_id_++;
  queue_.push(Entry{t, next_seq_++, id, std::move(fn), 0.0, nullptr});
  queued_.insert(id);
  if (observer_) observer_->on_event_scheduled(t, id);
  return id;
}

EventId Simulator::schedule_periodic(Seconds interval,
                                     std::function<bool()> fn,
                                     Seconds first_delay) {
  EANT_CHECK(interval > 0.0, "periodic interval must be positive");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  if (first_delay < 0.0) first_delay = interval;
  const EventId id = next_id_++;
  queue_.push(Entry{now_ + first_delay, next_seq_++, id, nullptr, interval,
                    std::move(fn)});
  queued_.insert(id);
  if (observer_) observer_->on_event_scheduled(now_ + first_delay, id);
  return id;
}

std::optional<Simulator::Entry> Simulator::pop_live(Seconds limit) {
  while (!queue_.empty() && queue_.top().time <= limit) {
    Entry entry = queue_.top();
    queue_.pop();
    queued_.erase(entry.id);
    if (auto it = cancelled_.find(entry.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    return entry;
  }
  return std::nullopt;
}

bool Simulator::step() {
  std::optional<Entry> entry =
      pop_live(std::numeric_limits<Seconds>::infinity());
  if (!entry) return false;
  execute(std::move(*entry));
  return true;
}

void Simulator::execute(Entry entry) {
  EANT_ASSERT(entry.time >= now_, "event queue went backwards");
  now_ = entry.time;
  ++executed_;
  executing_id_ = entry.id;
  if (observer_) observer_->on_event_executed(now_, entry.id);
  if (entry.repeat_fn) {
    const bool keep = entry.repeat_fn();
    if (keep && !cancelled_.contains(entry.id)) {
      entry.time = now_ + entry.repeat_interval;
      entry.seq = next_seq_++;
      const Seconds next_time = entry.time;
      const EventId id = entry.id;
      queued_.insert(id);
      queue_.push(std::move(entry));
      if (observer_) observer_->on_event_scheduled(next_time, id);
    } else {
      cancelled_.erase(entry.id);
    }
  } else {
    entry.fn();
    // A one-shot callback may have cancelled its own (already-fired) id;
    // drop the tombstone so it cannot skew pending().
    cancelled_.erase(entry.id);
  }
  executing_id_ = 0;
}

void Simulator::run_until(Seconds t) {
  EANT_CHECK(t >= now_, "cannot run to the past");
  while (std::optional<Entry> entry = pop_live(t)) execute(std::move(*entry));
  now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace eant::sim
