// Tests for the thread-per-seed sweep driver (exp/parallel_for.h,
// exp/sweep.h): the parallel pool itself, and the load-bearing claim that an
// N-seed parallel sweep is bit-identical to the serial loop it replaced —
// per-seed determinism digests equal at any thread count, results in seed
// order regardless of completion order.
//
// This file carries the `tsan` ctest label: the ThreadSanitizer CI lane
// builds it with -fsanitize=thread and runs exactly these tests, so every
// cross-thread access the driver makes is race-checked on every push.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/catalog.h"
#include "exp/builders.h"
#include "exp/chaos.h"
#include "exp/parallel_for.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace eant {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  exp::parallel_for(kN, 4, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  exp::parallel_for(0, 4, [](std::size_t) { FAIL() << "fn called for n=0"; });
}

TEST(ParallelFor, SerialFallbackRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  exp::parallel_for(8, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, MoreThreadsThanItemsStillCoversAll) {
  std::vector<std::atomic<int>> visits(3);
  exp::parallel_for(3, 16, [&](std::size_t i) { ++visits[i]; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(
      exp::parallel_for(64, 4,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("cell 7 died");
                        }),
      std::runtime_error);
}

TEST(ParallelFor, WorkerClampAndRequestedCounts) {
  EXPECT_EQ(exp::parallel_workers(10, 4), 4u);
  EXPECT_EQ(exp::parallel_workers(2, 8), 2u);   // never more than items
  EXPECT_GE(exp::parallel_workers(10, 0), 1u);  // 0 = hardware, at least 1
  EXPECT_EQ(exp::parallel_workers(10, 1), 1u);
}

// --- sweep driver -----------------------------------------------------------

exp::RunConfig audited_config() {
  exp::RunConfig cfg;
  cfg.audit.enabled = true;
  return cfg;
}

std::vector<workload::JobSpec> small_batch() {
  // Jobs small enough that a 6-seed sweep stays in test-suite time but large
  // enough that cells finish at staggered times under contention.
  return exp::job_batch(workload::AppKind::kTerasort, 1200.0, 4, 2);
}

TEST(Sweep, ParallelDigestsBitIdenticalToSerial) {
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), 8);
  const auto jobs = small_batch();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6};

  exp::SweepConfig serial;
  serial.threads = 1;
  exp::SweepConfig parallel;
  parallel.threads = 4;

  const auto a = exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt,
                                  audited_config(), jobs, seeds, serial);
  const auto b = exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt,
                                  audited_config(), jobs, seeds, parallel);

  ASSERT_EQ(a.size(), seeds.size());
  ASSERT_EQ(b.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(a[i].seed, seeds[i]);
    EXPECT_EQ(b[i].seed, seeds[i]);
    ASSERT_NE(a[i].metrics.determinism_digest, 0u);
    EXPECT_EQ(a[i].metrics.determinism_digest, b[i].metrics.determinism_digest)
        << "seed " << seeds[i] << ": parallel digest diverged from serial";
    EXPECT_DOUBLE_EQ(a[i].metrics.makespan, b[i].metrics.makespan);
    EXPECT_DOUBLE_EQ(a[i].metrics.total_energy, b[i].metrics.total_energy);
  }
}

TEST(Sweep, DistinctSeedsProduceDistinctDigests) {
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), 8);
  exp::SweepConfig sc;
  sc.threads = 2;
  const auto out = exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt,
                                    audited_config(), small_batch(), {1, 2},
                                    sc);
  EXPECT_NE(out[0].metrics.determinism_digest,
            out[1].metrics.determinism_digest);
}

TEST(Sweep, ResultOrderFollowsSeedOrderNotCompletionOrder) {
  // Seed list deliberately unsorted; slots must come back in list order.
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), 8);
  const std::vector<std::uint64_t> seeds = {9, 3, 7, 1};
  exp::SweepConfig sc;
  sc.threads = 4;
  const auto out = exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt,
                                    audited_config(), small_batch(), seeds,
                                    sc);
  ASSERT_EQ(out.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(out[i].seed, seeds[i]);
  }
}

TEST(Sweep, CellExceptionPropagatesToCaller) {
  exp::RunConfig cfg;
  cfg.time_limit = 1.0;  // no workload can finish: execute() must throw
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), 4);
  exp::SweepConfig sc;
  sc.threads = 2;
  EXPECT_THROW(exp::sweep_seeds(fleet, exp::SchedulerKind::kFifo, cfg,
                                small_batch(), {1, 2}, sc),
               std::exception);
}

TEST(ChaosCampaign, ParallelMatrixMatchesSerial) {
  // Two light mixes x two seeds through run_chaos_campaign at 1 and 3
  // threads: identical outcome order, identical digests.
  const auto fleet = exp::paper_fleet();
  exp::RunConfig base;
  base.topology = net::TopologySpec::oversubscribed();
  base.job_tracker.tracker_expiry_window = 30.0;
  const auto jobs = exp::job_batch(workload::AppKind::kTerasort, 1500.0, 4, 2);

  auto mixes = exp::default_chaos_mixes();
  mixes.resize(2);  // machine-crashes + link-faults keep the test fast

  exp::ChaosConfig cc;
  cc.seeds = {1, 2};
  cc.horizon = 3000.0;
  cc.verify_determinism = false;
  cc.threads = 1;
  const auto serial = exp::run_chaos_campaign(
      fleet, exp::SchedulerKind::kEAnt, base, jobs, mixes, cc);
  cc.threads = 3;
  const auto parallel = exp::run_chaos_campaign(
      fleet, exp::SchedulerKind::kEAnt, base, jobs, mixes, cc);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].mix, parallel[i].mix);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].metrics.determinism_digest,
              parallel[i].metrics.determinism_digest)
        << serial[i].mix << " seed " << serial[i].seed;
    EXPECT_EQ(serial[i].survived, parallel[i].survived);
  }
}

}  // namespace
}  // namespace eant
