// Allocation gate for the simulator's event queue.  Once its containers
// have grown to the working set, scheduling, stepping and cancelling events
// whose callbacks fit std::function's inline buffer (captures of at most 16
// bytes) must not touch the heap, lazily timed ones included.  This binary replaces the global operator
// new/delete with counting versions, so it counts every allocation the
// process makes; the test reads the count around its steady-state loop only.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/simulator.h"

namespace {

std::uint64_t g_allocs = 0;

void* counted(std::size_t size) {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The aligned forms are left to the library: they pair with its own
// aligned deletes, and nothing here over-aligns.
void* operator new(std::size_t size) { return or_throw(counted(size)); }
void* operator new[](std::size_t size) { return or_throw(counted(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace eant::sim {
namespace {

TEST(SimulatorAllocations, SteadyStateEventsDoNotAllocate) {
  constexpr int kLive = 1000;        // one-shots pending at any time
  constexpr int kWarmRounds = 20000;
  constexpr int kRounds = 100000;
  Simulator sim;
  std::uint64_t fires = 0;
  std::uint64_t* counter = &fires;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  // A 16-byte capture: std::function keeps it inline.
  const auto schedule = [&](std::uint64_t tag) {
    return sim.schedule_after(0.25 * static_cast<double>(next() % 16),
                              [counter, tag] { *counter += tag & 1; });
  };
  std::vector<EventId> recent(64, 0);
  for (int i = 0; i < 4; ++i) {
    sim.schedule_periodic(1.0 + i, [counter] {
      ++*counter;
      return true;
    });
  }
  for (int i = 0; i < kLive; ++i) recent[i % recent.size()] = schedule(i);
  // Each round schedules two events, cancels one scheduled a while ago
  // (usually still pending) and steps once, so the queue holds steady.
  const auto round = [&](int i) {
    recent[static_cast<std::size_t>(i) % recent.size()] = schedule(next());
    schedule(next());
    sim.cancel(recent[next() % recent.size()]);
    sim.step();
  };
  for (int i = 0; i < kWarmRounds; ++i) round(i);

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t executed_before = sim.executed();
  for (int i = 0; i < kRounds; ++i) round(i);
  const std::uint64_t allocs = g_allocs - allocs_before;
  const std::uint64_t events = sim.executed() - executed_before;

  std::printf("%llu allocations over %llu executed events (%d rounds)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events), kRounds);
  ASSERT_GT(events, static_cast<std::uint64_t>(kRounds) / 2);
  EXPECT_LE(static_cast<double>(allocs),
            0.001 * static_cast<double>(events));
}

/// A one-shot that re-schedules itself `span` later when it fires: a
/// stand-in for a time-ordered arrival stream.  16 bytes, kept inline.
struct Chain {
  Simulator* sim;
  std::uint64_t* fires;
  void operator()() const {
    ++*fires;
    sim->schedule_after(10.0, *this);
  }
};

TEST(SimulatorAllocations, SteadyStateInTheRunDoesNotAllocate) {
  constexpr int kQueued = 10000;  // pre-scheduled in time order
  constexpr Seconds kSpan = 10.0;
  constexpr int kWarmSteps = 40000;
  constexpr int kSteps = 100000;
  Simulator sim;
  std::uint64_t fires = 0;
  std::uint64_t* counter = &fires;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  // The chain's nodes span (0, kSpan] and each re-schedules kSpan after
  // itself, so every one appends to the queue's sorted run.  The periodic
  // events start at kSpan and re-arm kSpan later, so they append too.
  for (int i = 1; i <= kQueued; ++i) {
    sim.schedule_at(kSpan * i / kQueued, Chain{&sim, counter});
  }
  for (int i = 0; i < 4; ++i) {
    sim.schedule_periodic(
        kSpan,
        [counter] {
          ++*counter;
          return true;
        },
        kSpan + 0.25 * i);
  }
  // Each step also schedules a near-term event (earlier than the run's
  // tail, so it enters the heap) and cancels one scheduled a while ago.
  std::vector<EventId> recent(64, 0);
  const auto step = [&](int i) {
    recent[static_cast<std::size_t>(i) % recent.size()] = sim.schedule_after(
        0.25 * static_cast<double>(next() % 16),
        [counter] { *counter += 1; });
    sim.cancel(recent[next() % recent.size()]);
    sim.step();
  };
  for (int i = 0; i < kWarmSteps; ++i) step(i);

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t executed_before = sim.executed();
  for (int i = 0; i < kSteps; ++i) step(i);
  const std::uint64_t allocs = g_allocs - allocs_before;
  const std::uint64_t events = sim.executed() - executed_before;

  std::printf("%llu allocations over %llu executed events (%d steps, %zu "
              "pending)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events), kSteps, sim.pending());
  ASSERT_EQ(events, static_cast<std::uint64_t>(kSteps));
  ASSERT_GE(sim.pending(), static_cast<std::size_t>(kQueued));
  EXPECT_LE(static_cast<double>(allocs),
            0.001 * static_cast<double>(events));
}

/// A stand-in for the fabric's one pending event: every event it runs
/// cancels its lazily timed event and schedules it again, three times, as
/// a burst of flow changes would.  Both callbacks capture only `this`.
class Rearmer {
 public:
  explicit Rearmer(Simulator& sim) : sim_(sim) {}

  void rearm() {
    sim_.cancel(event_);
    event_ = sim_.schedule_lazy(
        [this] {
          lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
          return sim_.now() + 0.0625 * static_cast<double>((lcg_ >> 33) % 16);
        },
        [this] {
          event_ = 0;
          ++fires_;
          for (int i = 0; i < 3; ++i) rearm();
        });
  }
  std::uint64_t fires() const { return fires_; }

 private:
  Simulator& sim_;
  EventId event_ = 0;
  std::uint64_t lcg_ = 12345;
  std::uint64_t fires_ = 0;
};

TEST(SimulatorAllocations, SteadyStateLazyRearmsDoNotAllocate) {
  constexpr int kWarmSteps = 20000;
  constexpr int kSteps = 100000;
  Simulator sim;
  Rearmer rearmer(sim);
  rearmer.rearm();
  // Periodic events that re-arm it too, so lazy records also resolve
  // behind other events' callbacks and tie with them.
  for (int i = 0; i < 4; ++i) {
    sim.schedule_periodic(4.0 + 0.5 * i, [&rearmer] {
      rearmer.rearm();
      return true;
    });
  }
  for (int i = 0; i < kWarmSteps; ++i) sim.step();

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t executed_before = sim.executed();
  const std::uint64_t fires_before = rearmer.fires();
  for (int i = 0; i < kSteps; ++i) sim.step();
  const std::uint64_t allocs = g_allocs - allocs_before;
  const std::uint64_t events = sim.executed() - executed_before;

  std::printf("%llu allocations over %llu executed events (%llu lazy "
              "fires)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(rearmer.fires() - fires_before));
  ASSERT_EQ(events, static_cast<std::uint64_t>(kSteps));
  ASSERT_GT(rearmer.fires() - fires_before, events / 2);
  EXPECT_LE(static_cast<double>(allocs),
            0.001 * static_cast<double>(events));
}

}  // namespace
}  // namespace eant::sim
