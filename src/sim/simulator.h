// Discrete-event simulation engine.
//
// The whole cluster reproduction is driven by one Simulator: task completions,
// TaskTracker heartbeats (3 s), power-meter samples, control-interval ticks
// (5 min) and job arrivals are all events.  Events at equal timestamps run in
// schedule order (FIFO), which keeps every experiment deterministic for a
// fixed seed.  A lazily timed event (schedule_lazy) takes its place in that
// order when it is scheduled and learns its time once the scheduling code
// is done, so work that a burst of changes would redo per change (the
// fabric's rate allocation) runs once per event.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

  /// An event was enqueued for absolute time t.  A lazily timed event
  /// (Simulator::schedule_lazy) reports the clock at scheduling instead:
  /// its time is not known yet.
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

  /// Schedules fn to run at a time that `when` gives later.  The event takes
  /// its id and its FIFO place among equal times now, exactly as
  /// schedule_at would; `when` runs once, after the scheduling event's
  /// callback returns (or before the next pop, when scheduled outside any
  /// event), and must return a time >= now without scheduling or cancelling
  /// events.  No pop comes between, so the event runs where
  /// schedule_at(when()) at this call would have put it.  A lazy event
  /// cancelled before its time is asked for is dropped and `when` never
  /// runs.
  EventId schedule_lazy(std::function<Seconds()> when,
                        std::function<void()> fn);

  /// Cancels a pending event; a no-op if it already fired or was cancelled.
  /// Cancelling the event currently executing (a periodic callback cancelling
  /// itself) stops its repetition.
  void cancel(EventId id) {
    // Id 0 (kept kDone) and ids not issued yet fall out here; so does a
    // one-shot's own id during its callback, which is marked done first.
    if (id >= state_.size() || state_[id] != State::kPending) return;
    state_[id] = State::kCancelled;
    // The executing periodic event has no heap node to skip later.
    if (id != executing_id_) ++cancelled_queued_;
  }

  /// Executes the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs every event with a timestamp <= t, then advances the clock to t.
  void run_until(Seconds t);

  /// Runs until the queue drains.
  void run();

  /// Number of live (not-yet-cancelled) pending events, lazy ones not yet
  /// timed included.
  std::size_t pending() const {
    const std::size_t untimed = lazy_ != nullptr ? lazy_->size() : 0;
    return heap_.size() + (run_.size() - run_head_) + untimed -
           cancelled_queued_;
  }

  /// Total number of events executed so far (for perf reporting and tests).
  std::uint64_t executed() const { return executed_; }

  /// Attaches (or, with nullptr, detaches) an observer that is notified of
  /// every schedule and execution.  At most one observer; it must outlive
  /// the simulator or be detached first.
  void set_observer(SimObserver* observer) { observer_ = observer; }

 private:
  /// Queue node: the (time, seq) key plus the slot holding the callbacks.
  /// seq is unique, so the key orders nodes strictly.
  struct Node {
    Seconds time;
    std::uint64_t seq;  // tie-break: equal-time events fire in schedule order
    std::uint32_t slot;
  };

  /// An event's callbacks; recycled through free_slots_ once it is done.  A
  /// periodic event keeps its slot across re-arms.
  struct Slot {
    EventId id = 0;
    Seconds repeat_interval = 0.0;    // 0 when one-shot
    std::function<void()> fn;         // set for one-shot events
    std::function<bool()> repeat_fn;  // set for periodic events
  };

  /// A lazy event waiting for its time: the seq it took when scheduled,
  /// its slot (holding fn) and the callback that gives the time.
  struct Lazy {
    std::uint64_t seq;
    std::uint32_t slot;
    std::function<Seconds()> when;
  };

  enum class State : std::uint8_t { kPending, kCancelled, kDone };

  /// Stores a new event's callbacks in a free slot and queues it at t.
  EventId push_new(Seconds t, Seconds repeat_interval,
                   std::function<void()> fn, std::function<bool()> repeat_fn);

  void push_node(Seconds t, std::uint32_t slot);

  /// Asks every lazy event for its time, in seq order, and queues it (drops
  /// it when cancelled).
  void resolve_lazy();

  /// Pops nodes up to time `limit`, dropping cancelled ones, and returns the
  /// first live one (nothing when none is due by `limit`).
  std::optional<Node> pop_live(Seconds limit);

  /// Removes and returns the earliest node of the run and the heap, or
  /// nothing when it is later than `limit` (or both are empty).
  std::optional<Node> pop_earliest(Seconds limit);

  void execute(const Node& node);

  // Pending nodes live in one of two containers; the earlier (time, seq)
  // of their fronts pops next.  A node not before the run's last one joins
  // the run, sorted and consumed from run_head_, so events scheduled in
  // time order (a workload's arrivals, periodic re-arms) append in O(1)
  // and never enter the heap.
  std::vector<Node> heap_;  // binary min-heap on (time, seq)
  std::vector<Node> run_;   // sorted on (time, seq); run_head_ is its front
  std::size_t run_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Indexed by id: live ids are kPending, or kCancelled until their node
  // pops.  Id 0 never names an event and stays kDone.
  std::vector<State> state_{State::kDone};
  // kCancelled ids that still have a node or an untimed lazy record
  std::size_t cancelled_queued_ = 0;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId executing_id_ = 0;  // id of the event being executed (0 = none)
  std::uint64_t executed_ = 0;
  SimObserver* observer_ = nullptr;
  // Lazy events not yet timed, in seq order; made on first use, so a
  // simulator that never schedules one grows by a pointer only.
  std::unique_ptr<std::vector<Lazy>> lazy_;
};

}  // namespace eant::sim
