// Differential test of sim::Simulator's event queue against a reference: the
// std::priority_queue + hash-set queue it replaced, kept here verbatim as
// ReferenceSimulator.  Random operation streams drive both: schedule_at and
// schedule_after on a coarse time grid (so many events tie), schedule_periodic
// with random repeat counts and first delays, cancel of live, fired, unknown,
// zero and self ids, step and run_until.  Callbacks cancel ids and schedule
// children too.  After every operation the executed (id, time) sequences,
// every observer notification, the returned ids, executed(), pending() and
// now() must match.  pending() is compared between operations only: inside
// a self-cancelling callback the reference undercounts (see sim_test).  A
// second family of streams is shaped for the sorted run the queue keeps
// beside its heap: long time-ordered prefixes, stray earlier schedules that
// tie with them, cancels, drains and run_until stops inside the run.  A
// third mixes in lazily timed events (schedule_lazy, its time now + d);
// the reference schedules each at now + d at the same point, and the lazy
// event's scheduling note carries the clock at scheduling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace eant::sim {
namespace {

// --- the reference --------------------------------------------------------

class ReferenceSimulator {
 public:
  ReferenceSimulator() = default;
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;

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

  /// Pops entries up to time `limit`, dropping cancelled ones, and returns
  /// the first live entry (nothing when none is due by `limit`).
  std::optional<Entry> pop_live(Seconds limit);

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

EventId ReferenceSimulator::schedule_at(Seconds t, std::function<void()> fn) {
  EANT_CHECK(t >= now_, "cannot schedule in the past");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  const EventId id = next_id_++;
  queue_.push(Entry{t, next_seq_++, id, std::move(fn), 0.0, nullptr});
  queued_.insert(id);
  if (observer_) observer_->on_event_scheduled(t, id);
  return id;
}

EventId ReferenceSimulator::schedule_periodic(Seconds interval,
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

std::optional<ReferenceSimulator::Entry> ReferenceSimulator::pop_live(
    Seconds limit) {
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

bool ReferenceSimulator::step() {
  std::optional<Entry> entry =
      pop_live(std::numeric_limits<Seconds>::infinity());
  if (!entry) return false;
  execute(std::move(*entry));
  return true;
}

void ReferenceSimulator::execute(Entry entry) {
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

void ReferenceSimulator::run_until(Seconds t) {
  EANT_CHECK(t >= now_, "cannot run to the past");
  while (std::optional<Entry> entry = pop_live(t)) execute(std::move(*entry));
  now_ = t;
}

void ReferenceSimulator::run() {
  while (step()) {
  }
}

// --- the harness ----------------------------------------------------------

constexpr Seconds kGrid = 0.5;  // every time is a multiple: ties are common

/// What an event does each time it fires, drawn when it is scheduled.
struct Action {
  int keep = 1;            ///< fires before a periodic callback returns false
  int cancel_self_at = 0;  ///< cancels its own id on this fire (0: never)
  bool cancels = false;    ///< cancels `target` on every fire
  EventId target = 0;      ///< live, fired, unknown or zero
  int child = -1;          ///< plan index of a one-shot to schedule per fire
  Seconds delay = 0.0;     ///< a child's delay from its parent's fire
  int lazy_children = 0;   ///< schedule the child this often, lazily timed
  bool drop_lazy = false;  ///< cancel the first lazy child in the same fire
};

/// One notification or fired callback, in the order it happened.
struct Note {
  char kind;  ///< 's' scheduled, 'x' executed (observer), 'f' callback ran
  Seconds t;
  EventId id;
  bool operator==(const Note&) const = default;
};

/// Drives one simulator through the shared plan and logs what it does.
template <typename Sim>
class Driver final : public SimObserver {
 public:
  explicit Driver(const std::vector<Action>& plan) : plan_(plan) {
    sim.set_observer(this);
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  EventId at(Seconds t, int action) {
    const std::size_t token = open_token();
    ids_[token] = sim.schedule_at(t, [this, token, action] {
      fire(token, action);
    });
    return ids_[token];
  }

  EventId after(Seconds dt, int action) {
    const std::size_t token = open_token();
    ids_[token] = sim.schedule_after(dt, [this, token, action] {
      fire(token, action);
    });
    return ids_[token];
  }

  EventId periodic(Seconds interval, Seconds first_delay, int action) {
    const std::size_t token = open_token();
    ids_[token] = sim.schedule_periodic(
        interval, [this, token, action] { return fire(token, action); },
        first_delay);
    return ids_[token];
  }

  /// A one-shot dt after now: lazily timed on the Simulator (its time
  /// callback reads the clock then), schedule_at(now + dt) on the
  /// reference.  Either way the scheduling note carries the clock now.
  EventId lazy(Seconds dt, int action) {
    const std::size_t token = open_token();
    lazy_.resize(ids_.size());
    lazy_[token] = Lazy{true, dt, sim.now(), 0};
    const auto fn = [this, token, action] { fire(token, action); };
    if constexpr (std::is_same_v<Sim, Simulator>) {
      ids_[token] = sim.schedule_lazy(
          [this, token] {
            Lazy& l = lazy_[token];
            ++l.whens;
            EXPECT_EQ(sim.now(), l.scheduled_at) << "timed after a pop";
            return sim.now() + l.dt;
          },
          fn);
    } else {
      lazy_next_ = true;
      ids_[token] = sim.schedule_at(sim.now() + dt, fn);
    }
    return ids_[token];
  }

  /// Lazy events whose time was never asked for (cancelled before) and
  /// ones timed but cancelled before they fired; every lazy event that
  /// fired was timed exactly once.
  void tally_lazy(std::uint64_t& untimed, std::uint64_t& timed_cancelled,
                  std::uint64_t& fired) const {
    for (std::size_t token = 0; token < lazy_.size(); ++token) {
      const Lazy& l = lazy_[token];
      if (!l.is_lazy) continue;
      EXPECT_LE(l.whens, 1);
      if (fires_[token] > 0) {
        EXPECT_EQ(l.whens, 1);
        ++fired;
      } else {
        ++(l.whens == 0 ? untimed : timed_cancelled);
      }
    }
  }

  /// Ids issued so far (they run 1..issued()).
  EventId issued() const { return ids_.size(); }

  void on_event_scheduled(Seconds t, EventId id) override {
    notes.push_back(Note{'s', lazy_next_ ? sim.now() : t, id});
    lazy_next_ = false;
  }
  void on_event_executed(Seconds t, EventId id) override {
    notes.push_back(Note{'x', t, id});
  }

  Sim sim;
  std::vector<Note> notes;
  std::uint64_t self_cancels = 0;
  std::uint64_t multi_lazy_fires = 0;   ///< fires scheduling 2+ lazy events
  std::uint64_t nested_lazy_fires = 0;  ///< lazy events scheduling lazy ones

 private:
  std::size_t open_token() {
    ids_.push_back(0);
    fires_.push_back(0);
    return ids_.size() - 1;
  }

  bool fire(std::size_t token, int action) {
    const Action& a = plan_[static_cast<std::size_t>(action)];
    const int n = ++fires_[token];
    notes.push_back(Note{'f', sim.now(), ids_[token]});
    if (a.cancel_self_at == n) {
      sim.cancel(ids_[token]);
      ++self_cancels;
    }
    if (a.cancels) sim.cancel(a.target);
    if (a.child >= 0) {
      const Seconds delay = plan_[static_cast<std::size_t>(a.child)].delay;
      if (a.lazy_children == 0) at(sim.now() + delay, a.child);
      if (a.lazy_children > 1) ++multi_lazy_fires;
      if (a.lazy_children > 0 && token < lazy_.size() && lazy_[token].is_lazy)
        ++nested_lazy_fires;
      for (int i = 0; i < a.lazy_children; ++i) {
        const EventId id = lazy(delay, a.child);
        if (i == 0 && a.drop_lazy) sim.cancel(id);
      }
    }
    return n < a.keep;
  }

  struct Lazy {
    bool is_lazy = false;
    Seconds dt = 0.0;
    Seconds scheduled_at = 0.0;
    int whens = 0;  // calls of its time callback
  };

  const std::vector<Action>& plan_;
  std::vector<EventId> ids_;  // token (schedule call) -> id
  std::vector<int> fires_;    // token -> fires so far
  std::vector<Lazy> lazy_;    // token -> its lazy record, if any
  bool lazy_next_ = false;    // the next scheduling note is a lazy event's
};

/// Coverage of one or more scenarios.
struct Stats {
  std::uint64_t ops = 0;
  std::uint64_t executed = 0;
  std::uint64_t ties = 0;  ///< executions at the previous execution's time
  std::uint64_t rearms = 0;
  std::uint64_t live_cancels = 0;  ///< cancels that lowered pending()
  std::uint64_t stale_cancels = 0;
  std::uint64_t self_cancels = 0;
  /// Schedules (and, of them, periodic re-arms) at or after every time
  /// scheduled before: whatever the queue keeps, these extend its sorted
  /// run rather than entering the heap.
  std::uint64_t run_pushes = 0;
  std::uint64_t run_rearms = 0;
};

/// An id to cancel: mostly recent (live or just fired), else any issued
/// one, one not issued yet, or 0.
EventId draw_target(Rng& rng, EventId issued) {
  const double u = rng.uniform();
  if (issued > 0 && u < 0.6) {
    const EventId lo = issued > 12 ? issued - 12 : 1;
    return static_cast<EventId>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(issued)));
  }
  if (issued > 0 && u < 0.75)
    return static_cast<EventId>(
        rng.uniform_int(1, static_cast<std::int64_t>(issued)));
  if (u < 0.9) return issued + 1 + static_cast<EventId>(rng.uniform_int(0, 8));
  return 0;
}

/// Appends a drawn action (and maybe its child's) to the plan; returns its
/// index.
int draw_action(Rng& rng, std::vector<Action>& plan, bool periodic,
                EventId issued, bool may_have_child) {
  Action a;
  a.keep = periodic ? static_cast<int>(rng.uniform_int(1, 6)) : 1;
  if (rng.uniform() < 0.15)
    a.cancel_self_at = static_cast<int>(rng.uniform_int(1, a.keep));
  if (rng.uniform() < 0.3) {
    a.cancels = true;
    a.target = draw_target(rng, issued);
  }
  if (may_have_child && rng.uniform() < 0.3) {
    a.child = draw_action(rng, plan, /*periodic=*/false, issued,
                          /*may_have_child=*/false);
    plan[static_cast<std::size_t>(a.child)].delay =
        kGrid * static_cast<double>(rng.uniform_int(0, 4));
  }
  plan.push_back(a);
  return static_cast<int>(plan.size() - 1);
}

/// Asserts both drivers agree on everything observable outside callbacks.
void expect_same(const Driver<Simulator>& fast,
                 const Driver<ReferenceSimulator>& ref, std::uint64_t seed,
                 int op) {
  ASSERT_EQ(fast.notes.size(), ref.notes.size())
      << "seed " << seed << " op " << op;
  for (std::size_t i = 0; i < ref.notes.size(); ++i) {
    const Note& a = fast.notes[i];
    const Note& b = ref.notes[i];
    ASSERT_TRUE(a == b) << "seed " << seed << " op " << op << " note " << i
                        << ": got " << a.kind << " id " << a.id << " t "
                        << a.t << ", reference " << b.kind << " id " << b.id
                        << " t " << b.t;
  }
  ASSERT_EQ(fast.sim.executed(), ref.sim.executed()) << "seed " << seed;
  ASSERT_EQ(fast.sim.pending(), ref.sim.pending())
      << "seed " << seed << " op " << op;
  ASSERT_EQ(fast.sim.now(), ref.sim.now()) << "seed " << seed;
}

/// Adds one finished scenario's executions, ties, re-arms and certain run
/// pushes to the stats.
void tally(const Driver<ReferenceSimulator>& ref, Stats& stats) {
  Seconds last = -1.0;
  Seconds latest = -1.0;  // latest time scheduled so far
  std::uint64_t scheduled = 0;
  std::vector<bool> seen(ref.issued() + 1, false);
  for (const Note& n : ref.notes) {
    if (n.kind == 's') {
      ++scheduled;
      if (n.t >= latest) {
        ++stats.run_pushes;
        if (seen[n.id]) ++stats.run_rearms;
      }
      latest = std::max(latest, n.t);
      seen[n.id] = true;
    }
    if (n.kind != 'x') continue;
    ++stats.executed;
    if (n.t == last) ++stats.ties;
    last = n.t;
  }
  // Scheduled notes beyond one per issued id are periodic re-arms.
  stats.rearms += scheduled - ref.issued();
  stats.self_cancels += ref.self_cancels;
}

void run_scenario(std::uint64_t seed, int ops, Stats& stats) {
  Rng rng(seed);
  std::vector<Action> plan;
  Driver<Simulator> fast(plan);
  Driver<ReferenceSimulator> ref(plan);
  const auto grid_after = [&](int max_steps) {
    return kGrid * static_cast<double>(rng.uniform_int(0, max_steps));
  };

  for (int op = 0; op < ops; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 99);
    const std::size_t before = ref.sim.pending();
    if (kind < 30) {
      const Seconds t = ref.sim.now() + grid_after(8);
      const int a = draw_action(rng, plan, false, ref.issued(), true);
      ASSERT_EQ(fast.at(t, a), ref.at(t, a)) << "seed " << seed;
    } else if (kind < 38) {
      const Seconds dt = grid_after(8);
      const int a = draw_action(rng, plan, false, ref.issued(), true);
      ASSERT_EQ(fast.after(dt, a), ref.after(dt, a)) << "seed " << seed;
    } else if (kind < 48) {
      const Seconds interval =
          kGrid * static_cast<double>(rng.uniform_int(1, 4));
      const Seconds first = rng.uniform() < 0.5 ? -1.0 : grid_after(4);
      const int a = draw_action(rng, plan, true, ref.issued(), true);
      ASSERT_EQ(fast.periodic(interval, first, a),
                ref.periodic(interval, first, a))
          << "seed " << seed;
    } else if (kind < 66) {
      const EventId target = draw_target(rng, ref.issued());
      fast.sim.cancel(target);
      ref.sim.cancel(target);
      ++(ref.sim.pending() < before ? stats.live_cancels
                                     : stats.stale_cancels);
    } else if (kind < 88) {
      ASSERT_EQ(fast.sim.step(), ref.sim.step()) << "seed " << seed;
    } else {
      const Seconds t = ref.sim.now() + grid_after(6);
      fast.sim.run_until(t);
      ref.sim.run_until(t);
    }
    expect_same(fast, ref, seed, op);
    if (testing::Test::HasFatalFailure()) return;
    ++stats.ops;
  }
  fast.sim.run();
  ref.sim.run();
  expect_same(fast, ref, seed, ops);
  if (testing::Test::HasFatalFailure()) return;
  tally(ref, stats);
}

/// What the time-ordered streams did to the run on purpose.
struct OrderedStats {
  std::uint64_t in_order = 0;  ///< schedules at or after the stream's cursor
  std::uint64_t periodic = 0;  ///< periodic events among them
  std::uint64_t stray = 0;     ///< schedules before the cursor
  std::uint64_t stray_ties = 0;   ///< ... at a time scheduled in order
  std::uint64_t run_cancels = 0;  ///< live cancels of in-order ids
  std::uint64_t short_stops = 0;  ///< run_until stopped with events pending
  std::uint64_t drains = 0;       ///< full drains, each refilled after
};

/// Streams shaped for the sorted run the queue keeps beside its heap:
/// phases that schedule long nondecreasing prefixes from a cursor (a third
/// of the steps add no time, so equal times queue up; some are periodic),
/// stray schedules before the cursor (half of them at a time already
/// scheduled in order, so ties fall between the run and the heap), cancels
/// of in-order ids, steps, run_until stops short of the cursor, and full
/// drains after which the next prefix refills the queue.
void run_ordered_scenario(std::uint64_t seed, int phases, Stats& stats,
                          OrderedStats& ordered) {
  Rng rng(seed);
  std::vector<Action> plan;
  Driver<Simulator> fast(plan);
  Driver<ReferenceSimulator> ref(plan);
  Seconds cursor = 0.0;  // the latest time scheduled in order
  std::vector<Seconds> ordered_times;
  std::vector<EventId> ordered_ids;
  int op = 0;
  const auto grid_before_cursor = [&] {
    const auto span =
        static_cast<std::int64_t>((cursor - ref.sim.now()) / kGrid);
    return ref.sim.now() +
           kGrid * static_cast<double>(
                       rng.uniform_int(0, std::max<std::int64_t>(span, 0)));
  };
  const auto pick = [&rng](const auto& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };

  for (int phase = 0; phase < phases; ++phase) {
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 30) {
      cursor = std::max(cursor, ref.sim.now());
      const std::int64_t n = rng.uniform_int(8, 48);
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t step = rng.uniform_int(0, 2);
        cursor += kGrid * static_cast<double>(step == 2 ? 2 : step);
        if (rng.uniform() < 0.15) {
          const Seconds interval =
              kGrid * static_cast<double>(rng.uniform_int(1, 4));
          const Seconds first = cursor - ref.sim.now();
          const int a = draw_action(rng, plan, true, ref.issued(), true);
          ASSERT_EQ(fast.periodic(interval, first, a),
                    ref.periodic(interval, first, a))
              << "seed " << seed;
          ++ordered.periodic;
        } else {
          const int a = draw_action(rng, plan, false, ref.issued(), true);
          ASSERT_EQ(fast.at(cursor, a), ref.at(cursor, a)) << "seed " << seed;
        }
        ordered_times.push_back(cursor);
        ordered_ids.push_back(ref.issued());
        ++ordered.in_order;
        expect_same(fast, ref, seed, op++);
        if (testing::Test::HasFatalFailure()) return;
      }
    } else if (kind < 45) {
      const std::int64_t n = rng.uniform_int(1, 6);
      for (std::int64_t i = 0; i < n; ++i) {
        Seconds t = grid_before_cursor();
        if (!ordered_times.empty() && rng.uniform() < 0.5) {
          const Seconds tie = pick(ordered_times);
          if (tie >= ref.sim.now()) {
            t = tie;
            ++ordered.stray_ties;
          }
        }
        if (t < cursor) ++ordered.stray;
        const int a = draw_action(rng, plan, false, ref.issued(), true);
        ASSERT_EQ(fast.at(t, a), ref.at(t, a)) << "seed " << seed;
        expect_same(fast, ref, seed, op++);
        if (testing::Test::HasFatalFailure()) return;
      }
    } else if (kind < 58) {
      const std::int64_t n = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const EventId target = ordered_ids.empty()
                                   ? draw_target(rng, ref.issued())
                                   : pick(ordered_ids);
        const std::size_t before = ref.sim.pending();
        fast.sim.cancel(target);
        ref.sim.cancel(target);
        if (!ordered_ids.empty() && ref.sim.pending() < before) {
          ++ordered.run_cancels;
        }
        expect_same(fast, ref, seed, op++);
        if (testing::Test::HasFatalFailure()) return;
      }
    } else if (kind < 78) {
      const std::int64_t n = rng.uniform_int(1, 10);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(fast.sim.step(), ref.sim.step()) << "seed " << seed;
        expect_same(fast, ref, seed, op++);
        if (testing::Test::HasFatalFailure()) return;
      }
    } else if (kind < 94) {
      const Seconds t = grid_before_cursor();
      fast.sim.run_until(t);
      ref.sim.run_until(t);
      if (ref.sim.pending() > 0) ++ordered.short_stops;
      expect_same(fast, ref, seed, op++);
      if (testing::Test::HasFatalFailure()) return;
    } else {
      if (ref.sim.pending() > 0) ++ordered.drains;
      fast.sim.run();
      ref.sim.run();
      expect_same(fast, ref, seed, op++);
      if (testing::Test::HasFatalFailure()) return;
      cursor = ref.sim.now();
      ordered_times.clear();
      ordered_ids.clear();
    }
  }
  fast.sim.run();
  ref.sim.run();
  expect_same(fast, ref, seed, op);
  if (testing::Test::HasFatalFailure()) return;
  stats.ops += static_cast<std::uint64_t>(op);
  tally(ref, stats);
}

/// draw_action for the lazy family: half the actions with a child schedule
/// it one to three times lazily timed (the first of them sometimes
/// cancelled in the same fire, before it has a time), and children may
/// have children once more, so lazy events schedule lazy events.
int draw_lazy_action(Rng& rng, std::vector<Action>& plan, bool periodic,
                     EventId issued, int depth) {
  Action a;
  a.keep = periodic ? static_cast<int>(rng.uniform_int(1, 4)) : 1;
  if (rng.uniform() < 0.1)
    a.cancel_self_at = static_cast<int>(rng.uniform_int(1, a.keep));
  if (rng.uniform() < 0.3) {
    a.cancels = true;
    a.target = draw_target(rng, issued);
  }
  if (depth < 2 && rng.uniform() < 0.45) {
    a.child = draw_lazy_action(rng, plan, /*periodic=*/false, issued,
                               depth + 1);
    plan[static_cast<std::size_t>(a.child)].delay =
        kGrid * static_cast<double>(rng.uniform_int(0, 4));
    if (rng.uniform() < 0.5) {
      a.lazy_children = static_cast<int>(rng.uniform_int(1, 3));
      a.drop_lazy = rng.uniform() < 0.3;
    }
  }
  plan.push_back(a);
  return static_cast<int>(plan.size() - 1);
}

/// What the lazy streams did.
struct LazyStats {
  std::uint64_t top_level = 0;   ///< lazy events scheduled outside events
  std::uint64_t fired = 0;       ///< lazy events that ran (timed once)
  std::uint64_t untimed = 0;     ///< cancelled before their time was asked
  std::uint64_t timed_cancelled = 0;  ///< cancelled after it
  std::uint64_t multi = 0;       ///< fires that scheduled 2+ lazy events
  std::uint64_t nested = 0;      ///< lazy events that scheduled lazy ones
  std::uint64_t short_stops = 0;  ///< run_until stops right after top-level
                                  ///< lazy events, with events pending
};

/// Random streams mixing lazily timed events (d on the grid, 0 included)
/// into today's operations: at top level (some cancelled at once, some
/// followed by a run_until stop) and from callbacks, several per fire and
/// nested.
void run_lazy_scenario(std::uint64_t seed, int ops, Stats& stats,
                       LazyStats& lazy) {
  Rng rng(seed);
  std::vector<Action> plan;
  Driver<Simulator> fast(plan);
  Driver<ReferenceSimulator> ref(plan);
  const auto grid_after = [&](int max_steps) {
    return kGrid * static_cast<double>(rng.uniform_int(0, max_steps));
  };

  for (int op = 0; op < ops; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 20) {
      const Seconds t = ref.sim.now() + grid_after(8);
      const int a = draw_lazy_action(rng, plan, false, ref.issued(), 0);
      ASSERT_EQ(fast.at(t, a), ref.at(t, a)) << "seed " << seed;
    } else if (kind < 36) {
      const std::int64_t n = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const Seconds dt = grid_after(8);
        const int a = draw_lazy_action(rng, plan, false, ref.issued(), 0);
        const EventId id = fast.lazy(dt, a);
        ASSERT_EQ(id, ref.lazy(dt, a)) << "seed " << seed;
        ++lazy.top_level;
        if (rng.uniform() < 0.2) {
          fast.sim.cancel(id);
          ref.sim.cancel(id);
        }
      }
      if (rng.uniform() < 0.5) {
        const Seconds t = ref.sim.now() + grid_after(2);
        fast.sim.run_until(t);
        ref.sim.run_until(t);
        if (ref.sim.pending() > 0) ++lazy.short_stops;
      }
    } else if (kind < 43) {
      const Seconds interval =
          kGrid * static_cast<double>(rng.uniform_int(1, 4));
      const Seconds first = rng.uniform() < 0.5 ? -1.0 : grid_after(4);
      const int a = draw_lazy_action(rng, plan, true, ref.issued(), 0);
      ASSERT_EQ(fast.periodic(interval, first, a),
                ref.periodic(interval, first, a))
          << "seed " << seed;
    } else if (kind < 58) {
      const EventId target = draw_target(rng, ref.issued());
      fast.sim.cancel(target);
      ref.sim.cancel(target);
    } else if (kind < 84) {
      ASSERT_EQ(fast.sim.step(), ref.sim.step()) << "seed " << seed;
    } else {
      const Seconds t = ref.sim.now() + grid_after(6);
      fast.sim.run_until(t);
      ref.sim.run_until(t);
    }
    expect_same(fast, ref, seed, op);
    if (testing::Test::HasFatalFailure()) return;
    ++stats.ops;
  }
  fast.sim.run();
  ref.sim.run();
  expect_same(fast, ref, seed, ops);
  if (testing::Test::HasFatalFailure()) return;
  tally(ref, stats);
  fast.tally_lazy(lazy.untimed, lazy.timed_cancelled, lazy.fired);
  lazy.multi += fast.multi_lazy_fires;
  lazy.nested += fast.nested_lazy_fires;
}

TEST(SimulatorOracle, RandomOperationStreamsMatchTheReference) {
  Stats stats;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_scenario(seed, 400, stats);
    if (HasFatalFailure()) return;
  }
  std::printf(
      "compared %llu ops, %llu executions (%llu ties, %llu periodic re-arms), "
      "%llu live and %llu stale cancels, %llu self-cancels\n",
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.ties),
      static_cast<unsigned long long>(stats.rearms),
      static_cast<unsigned long long>(stats.live_cancels),
      static_cast<unsigned long long>(stats.stale_cancels),
      static_cast<unsigned long long>(stats.self_cancels));
  // Every mechanism was exercised, not only the easy paths.
  EXPECT_GT(stats.ties, stats.executed / 10);
  EXPECT_GT(stats.rearms, 0u);
  EXPECT_GT(stats.live_cancels, 0u);
  EXPECT_GT(stats.stale_cancels, 0u);
  EXPECT_GT(stats.self_cancels, 0u);
}

TEST(SimulatorOracle, TimeOrderedStreamsThroughTheRunMatchTheReference) {
  Stats stats;
  OrderedStats ordered;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_ordered_scenario(seed, 60, stats, ordered);
    if (HasFatalFailure()) return;
  }
  std::printf(
      "compared %llu ops, %llu executions (%llu ties), %llu in-order "
      "schedules (%llu periodic), %llu stray ones (%llu at an in-order "
      "time), %llu live cancels of in-order ids, %llu short run_until "
      "stops, %llu drains; %llu schedules and %llu periodic re-arms "
      "certainly in the run\n",
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.ties),
      static_cast<unsigned long long>(ordered.in_order),
      static_cast<unsigned long long>(ordered.periodic),
      static_cast<unsigned long long>(ordered.stray),
      static_cast<unsigned long long>(ordered.stray_ties),
      static_cast<unsigned long long>(ordered.run_cancels),
      static_cast<unsigned long long>(ordered.short_stops),
      static_cast<unsigned long long>(ordered.drains),
      static_cast<unsigned long long>(stats.run_pushes),
      static_cast<unsigned long long>(stats.run_rearms));
  EXPECT_GT(stats.ties, stats.executed / 10);
  EXPECT_GT(ordered.periodic, 0u);
  EXPECT_GT(ordered.stray, 0u);
  EXPECT_GT(ordered.stray_ties, 0u);
  EXPECT_GT(ordered.run_cancels, 0u);
  EXPECT_GT(ordered.short_stops, 0u);
  EXPECT_GT(ordered.drains, 0u);
  EXPECT_GT(stats.run_pushes, ordered.in_order / 2);
  EXPECT_GT(stats.run_rearms, 0u);
}

TEST(SimulatorOracle, LazilyTimedEventsMatchTheReference) {
  Stats stats;
  LazyStats lazy;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_lazy_scenario(seed, 300, stats, lazy);
    if (HasFatalFailure()) return;
  }
  std::printf(
      "compared %llu ops, %llu executions (%llu ties, %llu periodic "
      "re-arms); lazy events: %llu fired, %llu cancelled before and %llu "
      "after they were timed, %llu scheduled at top level (%llu run_until "
      "stops after them with events pending), %llu fires scheduling "
      "several, %llu lazy events scheduling lazy events\n",
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.ties),
      static_cast<unsigned long long>(stats.rearms),
      static_cast<unsigned long long>(lazy.fired),
      static_cast<unsigned long long>(lazy.untimed),
      static_cast<unsigned long long>(lazy.timed_cancelled),
      static_cast<unsigned long long>(lazy.top_level),
      static_cast<unsigned long long>(lazy.short_stops),
      static_cast<unsigned long long>(lazy.multi),
      static_cast<unsigned long long>(lazy.nested));
  EXPECT_GT(stats.ties, stats.executed / 10);
  EXPECT_GT(lazy.fired, 0u);
  EXPECT_GT(lazy.untimed, 0u);
  EXPECT_GT(lazy.timed_cancelled, 0u);
  EXPECT_GT(lazy.short_stops, 0u);
  EXPECT_GT(lazy.multi, 0u);
  EXPECT_GT(lazy.nested, 0u);
}

}  // namespace
}  // namespace eant::sim
