// Discrete-event simulation engine.
//
// The whole cluster reproduction is driven by one Simulator: task completions,
// TaskTracker heartbeats (3 s), power-meter samples, control-interval ticks
// (5 min) and job arrivals are all events.  Events at equal timestamps run in
// schedule order (FIFO), which keeps every experiment deterministic for a
// fixed seed.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace eant::sim {

/// Identifies a scheduled event so it can be cancelled before it fires; 0
/// never names one.
using EventId = std::uint64_t;

/// Passive observer of the event loop (the audit layer's tap).  Callbacks
/// fire synchronously inside schedule/execute and must not mutate the
/// simulator.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// An event was enqueued for absolute time t.
  virtual void on_event_scheduled(Seconds t, EventId id) = 0;

  /// An event is about to run; `t` is the (already advanced) clock.
  virtual void on_event_executed(Seconds t, EventId id) = 0;
};

/// Single-threaded event-driven simulator with a monotone clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds; starts at 0.
  Seconds now() const { return now_; }

  /// Schedules fn to run at absolute time t (t >= now).
  EventId schedule_at(Seconds t, std::function<void()> fn);

  /// Schedules fn to run dt seconds from now (dt >= 0).
  EventId schedule_after(Seconds dt, std::function<void()> fn) {
    EANT_CHECK(dt >= 0.0, "delay must be non-negative");
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Schedules fn every `interval` seconds starting at now + first_delay
  /// (defaults to one full interval), until fn returns false or the event is
  /// cancelled.  A non-default first_delay staggers the phase of otherwise
  /// synchronised periodic activities (e.g. TaskTracker heartbeats).
  EventId schedule_periodic(Seconds interval, std::function<bool()> fn,
                            Seconds first_delay = -1.0);

  /// Cancels a pending event; a no-op if it already fired or was cancelled.
  /// Cancelling the event currently executing (a periodic callback cancelling
  /// itself) stops its repetition.
  void cancel(EventId id) {
    // Only ids that are actually live may enter cancelled_, otherwise a
    // stale id would sit in the set forever and skew pending().  Id 0 means
    // "no event", and outside an event executing_id_ is 0 as well.
    if (id == 0) return;
    if (queued_.contains(id) || id == executing_id_) cancelled_.insert(id);
  }

  /// Executes the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs every event with a timestamp <= t, then advances the clock to t.
  void run_until(Seconds t);

  /// Runs until the queue drains.
  void run();

  /// Number of live (not-yet-cancelled) pending events.
  std::size_t pending() const { return queue_.size() - cancelled_.size(); }

  /// Total number of events executed so far (for perf reporting and tests).
  std::uint64_t executed() const { return executed_; }

  /// Attaches (or, with nullptr, detaches) an observer that is notified of
  /// every schedule and execution.  At most one observer; it must outlive
  /// the simulator or be detached first.
  void set_observer(SimObserver* observer) { observer_ = observer; }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;  // tie-break: equal-time events fire in schedule order
    EventId id;
    std::function<void()> fn;
    Seconds repeat_interval;          // 0 when one-shot
    std::function<bool()> repeat_fn;  // set for periodic entries

    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void execute(Entry entry);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_set<EventId> queued_;     // ids currently in the queue
  std::unordered_set<EventId> cancelled_;  // always a subset of live ids
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  EventId executing_id_ = 0;  // id of the event being executed (0 = none)
  std::uint64_t executed_ = 0;
  SimObserver* observer_ = nullptr;
};

}  // namespace eant::sim
