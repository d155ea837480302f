// Unit tests for the discrete-event simulation engine: ordering, ties,
// cancellation, periodic events, run_until semantics, lazily timed events.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "sim/simulator.h"

namespace eant::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), PreconditionError);
}

TEST(Simulator, RejectsEmptyCallback) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, std::function<void()>{}),
               PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fires; });
  sim.run();
  sim.cancel(id);  // no-op
  sim.cancel(id);
  sim.schedule_at(2.0, [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, CancelAfterFireDoesNotLeakPendingCount) {
  // Regression: cancelling an already-fired one-shot used to insert a stale
  // id into the tombstone set forever, skewing (and eventually underflowing)
  // pending().
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(id);  // stale: must be a true no-op
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);  // would have been 0 (or huge) with the leak
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelOfUnknownIdIsIgnored) {
  Simulator sim;
  sim.cancel(12345);
  sim.cancel(0);  // "no event", outside any event
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, OneShotSelfCancelDuringCallbackDoesNotLeak) {
  Simulator sim;
  EventId id = 0;
  id = sim.schedule_at(1.0, [&] { sim.cancel(id); });  // cancel self, mid-fire
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PendingInsideOneShotThatCancelsItself) {
  // Regression: the cancelled set took the executing one-shot's id while the
  // queue no longer held it, so pending() read SIZE_MAX here.
  Simulator sim;
  EventId id = 0;
  std::size_t inside = 99;
  id = sim.schedule_at(1.0, [&] {
    sim.cancel(id);
    inside = sim.pending();
  });
  sim.run();
  EXPECT_EQ(inside, 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, PendingInsidePeriodicThatCancelsItself) {
  // Cancelling the executing periodic event stops its re-arm; it has no
  // queued entry, so pending() still counts the one other event.
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  int fires = 0;
  EventId id = 0;
  std::size_t inside = 99;
  id = sim.schedule_periodic(1.0, [&] {
    if (++fires == 2) {
      sim.cancel(id);
      inside = sim.pending();
    }
    return true;
  });
  sim.run_until(5.0);
  EXPECT_EQ(inside, 1u);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelledThenFiredSlotKeepsPendingConsistent) {
  Simulator sim;
  // Cancel a pending event, let its tombstone be consumed, then make sure
  // later ids are unaffected.
  const EventId a = sim.schedule_at(1.0, [] {});
  const EventId b = sim.schedule_at(2.0, [] {});
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  sim.cancel(a);  // long gone
  sim.cancel(b);  // fired
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fires = 0;
  sim.schedule_at(1.0, [&] { ++fires; });
  sim.schedule_at(2.0, [&] { ++fires; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator sim;
  int fires = 0;
  sim.schedule_at(1.0, [&] { ++fires; });
  sim.schedule_at(7.0, [&] { ++fires; });
  sim.run_until(5.0);
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_THROW(sim.run_until(9.0), PreconditionError);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int fires = 0;
  sim.schedule_periodic(2.0, [&] {
    ++fires;
    return true;
  });
  sim.run_until(9.0);
  EXPECT_EQ(fires, 4);  // t = 2, 4, 6, 8
}

TEST(Simulator, PeriodicStopsWhenCallbackReturnsFalse) {
  Simulator sim;
  int fires = 0;
  sim.schedule_periodic(1.0, [&] {
    ++fires;
    return fires < 3;
  });
  sim.run_until(100.0);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PeriodicCanBeCancelled) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_periodic(1.0, [&] {
    ++fires;
    return true;
  });
  sim.run_until(3.5);
  sim.cancel(id);
  sim.run_until(10.0);
  EXPECT_EQ(fires, 3);
}

TEST(Simulator, PeriodicCancelledFromInsideOwnCallback) {
  Simulator sim;
  int fires = 0;
  EventId id = 0;
  id = sim.schedule_periodic(1.0, [&] {
    ++fires;
    if (fires == 2) sim.cancel(id);
    return true;
  });
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, PeriodicRejectsNonPositiveInterval) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(0.0, [] { return true; }),
               PreconditionError);
}

TEST(Simulator, ExecutedCounterCountsFiredEvents) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const EventId id = sim.schedule_at(2.0, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 4.0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = (i * 7919) % 104729 / 100.0;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

// A lazy event keeps the FIFO place of its scheduling call: it runs before
// an equal-time event scheduled after it in the same callback, although its
// time is asked for only once that callback has returned.
TEST(Simulator, LazyEventKeepsItsSchedulingPlace) {
  Simulator sim;
  std::vector<int> order;
  int whens = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_lazy(
        [&] {
          ++whens;
          return sim.now() + 2.0;
        },
        [&] { order.push_back(1); });
    EXPECT_EQ(whens, 0);
    EXPECT_EQ(sim.pending(), 1u);
    sim.schedule_at(3.0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(whens, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, LazyTimeCallbackMayNotScheduleOrGoBack) {
  Simulator sim;
  sim.schedule_lazy(
      [&] {
        sim.schedule_at(1.0, [] {});
        return 1.0;
      },
      [] {});
  EXPECT_THROW(sim.step(), PreconditionError);

  Simulator later;
  later.schedule_at(2.0, [&] {
    later.schedule_lazy([] { return 1.0; }, [] {});
  });
  EXPECT_THROW(later.run(), PreconditionError);
}

}  // namespace
}  // namespace eant::sim
