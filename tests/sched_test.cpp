// Unit tests for the baseline schedulers: FIFO ordering, Fair sharing,
// Tarazu's capability-proportional balancing, LATE speculation.

#include <gtest/gtest.h>

#include <memory>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "hdfs/namenode.h"
#include "mapreduce/job_tracker.h"
#include "sched/capacity.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/late.h"
#include "sched/tarazu.h"
#include "sim/simulator.h"

namespace eant::sched {
namespace {

workload::JobSpec job(workload::AppKind app, Megabytes mb, int reduces = 1) {
  workload::JobSpec s;
  s.app = app;
  s.input_mb = mb;
  s.num_reduces = reduces;
  return s;
}

struct Harness {
  Harness(std::unique_ptr<mr::Scheduler> s,
          std::vector<std::pair<cluster::MachineType, std::size_t>> fleet,
          mr::JobTrackerConfig cfg = {},
          mr::NoiseConfig noise_cfg = mr::NoiseConfig::none())
      : cluster(sim), scheduler(std::move(s)), noise(noise_cfg, Rng(21)) {
    std::size_t total = 0;
    for (const auto& [type, count] : fleet) {
      cluster.add_machines(type, count);
      total += count;
    }
    namenode = std::make_unique<hdfs::NameNode>(Rng(22), total);
    jt = std::make_unique<mr::JobTracker>(sim, cluster, *namenode, *scheduler,
                                          noise, cfg);
    jt->start_trackers();
  }

  void run() {
    while (!jt->all_done()) {
      ASSERT_LE(sim.now(), 7 * 24 * 3600.0);
      ASSERT_TRUE(sim.step());
    }
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  std::unique_ptr<mr::Scheduler> scheduler;
  mr::NoiseModel noise;
  std::unique_ptr<hdfs::NameNode> namenode;
  std::unique_ptr<mr::JobTracker> jt;
};

TEST(Fifo, RequiresAttach) {
  FifoScheduler s;
  EXPECT_THROW(s.select_job(0, mr::TaskKind::kMap), PreconditionError);
}

TEST(Fifo, EarlierJobFinishesFirst) {
  Harness h(std::make_unique<FifoScheduler>(),
            {{cluster::catalog::desktop(), 2}});
  const auto j0 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 30));
  const auto j1 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 30));
  h.run();
  EXPECT_LT(h.jt->job(j0).finish_time(), h.jt->job(j1).finish_time());
}

TEST(Fifo, SecondJobStarvesUntilFirstDrains) {
  Harness h(std::make_unique<FifoScheduler>(),
            {{cluster::catalog::desktop(), 1}});
  const auto j0 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 20));
  const auto j1 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 20));
  bool j1_ran_while_j0_pending = false;
  h.jt->set_report_listener([&](const mr::TaskReport& r) {
    if (r.spec.job == j1 &&
        h.jt->job(j0).has_pending(mr::TaskKind::kMap)) {
      j1_ran_while_j0_pending = true;
    }
  });
  h.run();
  EXPECT_FALSE(j1_ran_while_j0_pending);
}

TEST(Fair, SharesSlotsAcrossConcurrentJobs) {
  Harness h(std::make_unique<FairScheduler>(),
            {{cluster::catalog::desktop(), 2}});
  const auto j0 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 40));
  const auto j1 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 40));
  bool both_held_slots = false;
  h.jt->set_report_listener([&](const mr::TaskReport&) {
    if (h.jt->job(j0).occupied_slots() > 0 &&
        h.jt->job(j1).occupied_slots() > 0) {
      both_held_slots = true;
    }
  });
  h.run();
  EXPECT_TRUE(both_held_slots);
}

TEST(Fair, ConcurrentEqualJobsFinishClose) {
  Harness h(std::make_unique<FairScheduler>(),
            {{cluster::catalog::desktop(), 2}});
  const auto j0 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 30));
  const auto j1 =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 30));
  h.run();
  const double t0 = h.jt->job(j0).completion_time();
  const double t1 = h.jt->job(j1).completion_time();
  EXPECT_LT(std::abs(t0 - t1) / std::max(t0, t1), 0.25);
}

TEST(Fair, FairBeatsFifoOnShortJobLatency) {
  double fair_short = 0.0, fifo_short = 0.0;
  for (int mode = 0; mode < 2; ++mode) {
    std::unique_ptr<mr::Scheduler> s;
    if (mode == 0) {
      s = std::make_unique<FairScheduler>();
    } else {
      s = std::make_unique<FifoScheduler>();
    }
    Harness h(std::move(s), {{cluster::catalog::desktop(), 1}});
    h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 60));
    const auto shortj =
        h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 2));
    h.run();
    if (mode == 0) {
      fair_short = h.jt->job(shortj).completion_time();
    } else {
      fifo_short = h.jt->job(shortj).completion_time();
    }
  }
  EXPECT_LT(fair_short, 0.5 * fifo_short);
}

TEST(Tarazu, BalancesMapsTowardCapableMachines) {
  Harness h(std::make_unique<TarazuScheduler>(),
            {{cluster::catalog::t420(), 1}, {cluster::catalog::atom(), 1}});
  const auto j =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 60));
  h.run();
  const auto& per_machine =
      h.jt->job(j).completed_per_machine(mr::TaskKind::kMap);
  // Capability shares: T420 ~ 0.91, Atom ~ 0.09; with slack 1.5 the Atom
  // must end well below an even split.
  EXPECT_GT(per_machine[0], per_machine[1] * 2.5);
}

TEST(Tarazu, ReducesSkewPenaltyVersusFair) {
  auto run_skew = [&](std::unique_ptr<mr::Scheduler> s) {
    Harness h(std::move(s),
              {{cluster::catalog::t420(), 1},
               {cluster::catalog::desktop(), 2},
               {cluster::catalog::atom(), 1}});
    const auto j =
        h.jt->submit_now(job(workload::AppKind::kTerasort, 64.0 * 60, 4));
    h.run();
    return h.jt->job(j).shuffle_seconds();
  };
  const double fair_shuffle = run_skew(std::make_unique<FairScheduler>());
  const double tarazu_shuffle = run_skew(std::make_unique<TarazuScheduler>());
  EXPECT_LE(tarazu_shuffle, fair_shuffle * 1.02);
}

TEST(Tarazu, ComparableMakespanOnHeterogeneousFleet) {
  auto run_makespan = [&](std::unique_ptr<mr::Scheduler> s) {
    Harness h(std::move(s),
              {{cluster::catalog::t420(), 1},
               {cluster::catalog::desktop(), 1},
               {cluster::catalog::atom(), 2}});
    for (int i = 0; i < 4; ++i) {
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 30, 2));
    }
    h.run();
    return h.sim.now();
  };
  const double fair = run_makespan(std::make_unique<FairScheduler>());
  const double tarazu = run_makespan(std::make_unique<TarazuScheduler>());
  EXPECT_LT(tarazu, fair * 1.05);
}

TEST(Late, SpeculatesOnStragglers) {
  mr::NoiseConfig noise;
  noise.straggler_prob = 0.5;
  auto late = std::make_unique<LateScheduler>();
  auto* late_ptr = late.get();
  Harness h(std::move(late),
            {{cluster::catalog::desktop(), 1}, {cluster::catalog::t420(), 1}},
            {}, noise);
  h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 40, 2));
  h.run();
  EXPECT_GT(late_ptr->speculations(), 0u);
}

TEST(Late, NoSpeculationWithoutStragglers) {
  auto late = std::make_unique<LateScheduler>();
  auto* late_ptr = late.get();
  // Homogeneous machines, no noise: every task has identical duration, so
  // nothing exceeds mr::kStragglerBeta x the mean.
  Harness h(std::move(late), {{cluster::catalog::desktop(), 2}});
  h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 20, 1));
  h.run();
  EXPECT_EQ(late_ptr->speculations(), 0u);
}

TEST(Late, CompletesWorkloadDespiteSpeculation) {
  mr::NoiseConfig noise = mr::NoiseConfig::typical();
  noise.straggler_prob = 0.2;
  Harness h(std::make_unique<LateScheduler>(),
            {{cluster::catalog::desktop(), 2},
             {cluster::catalog::t420(), 1}},
            {}, noise);
  for (int i = 0; i < 3; ++i) {
    h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 20, 2));
  }
  h.run();
  EXPECT_EQ(h.jt->jobs_completed(), 3u);
}

TEST(Capacity, AssignsJobsToQueuesRoundRobin) {
  auto sched = std::make_unique<CapacityScheduler>();
  auto* ptr = sched.get();
  Harness h(std::move(sched), {{cluster::catalog::desktop(), 2}});
  const auto j0 = h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 4));
  const auto j1 = h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 4));
  const auto j2 = h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 4));
  EXPECT_EQ(ptr->num_queues(), 3u);
  EXPECT_EQ(ptr->queue_of(j0), 0u);
  EXPECT_EQ(ptr->queue_of(j1), 1u);
  EXPECT_EQ(ptr->queue_of(j2), 2u);
  EXPECT_THROW(ptr->queue_of(j2 + 1), PreconditionError);
  h.run();
  EXPECT_EQ(h.jt->jobs_completed(), 3u);
  // A master recovery rebuilds the map from the active jobs only, so the
  // finished ones drop out of it.
  ptr->on_master_recovered();
  EXPECT_THROW(ptr->queue_of(j0), PreconditionError);
  EXPECT_THROW(ptr->queue_of(j2), PreconditionError);
}

TEST(Capacity, StarvedQueueGetsSlotsFirst) {
  // Queues 50/30/20; the first queue's job is large, the second's small job
  // arrives later — the second queue must still get its share promptly.
  auto sched = std::make_unique<CapacityScheduler>();
  Harness h(std::move(sched), {{cluster::catalog::desktop(), 2}});
  const auto big =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 60));  // q0
  const auto small =
      h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 4));  // q1
  // Early: while the big job still has maps waiting for a slot.
  bool small_held_slots_early = false;
  h.jt->set_report_listener([&](const mr::TaskReport& r) {
    if (r.spec.job == small && h.jt->job(big).pending(mr::TaskKind::kMap) > 0) {
      small_held_slots_early = true;
    }
  });
  h.run();
  EXPECT_TRUE(small_held_slots_early);
  // The small job must not wait for the big one to drain (non-FIFO).
  EXPECT_LT(h.jt->job(small).completion_time(),
            h.jt->job(big).completion_time());
}

TEST(Capacity, SpilloverUsesIdleCapacity) {
  // Only one job (queue 0): it may use the whole cluster despite its
  // queue's 50% guarantee — capacity spills over.
  auto sched = std::make_unique<CapacityScheduler>();
  Harness h(std::move(sched), {{cluster::catalog::desktop(), 2}});
  const auto j = h.jt->submit_now(job(workload::AppKind::kWordcount, 64.0 * 24));
  int max_occupied = 0;
  h.jt->set_report_listener([&](const mr::TaskReport&) {
    max_occupied = std::max(max_occupied, h.jt->job(j).occupied_slots());
  });
  h.run();
  EXPECT_GT(max_occupied, 6);  // beyond 50% of the 12 slots
}

TEST(DelayScheduling, ImprovesLocalityOverPlainFair) {
  auto run_locality = [&](int delay) {
    auto sched = std::make_unique<FairScheduler>(delay);
    Harness h(std::move(sched), {{cluster::catalog::desktop(), 6}});
    for (int i = 0; i < 4; ++i) {
      h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 10, 2));
    }
    std::size_t local = 0, maps = 0;
    h.jt->set_report_listener([&](const mr::TaskReport& r) {
      if (r.spec.kind == mr::TaskKind::kMap) {
        ++maps;
        if (r.data_local) ++local;
      }
    });
    h.run();
    return static_cast<double>(local) / static_cast<double>(maps);
  };
  EXPECT_GE(run_locality(8) + 1e-9, run_locality(0));
}

TEST(DelayScheduling, CountsLocalityWaits) {
  auto sched = std::make_unique<FairScheduler>(4);
  auto* ptr = sched.get();
  Harness h(std::move(sched), {{cluster::catalog::desktop(), 12}});
  h.jt->submit_now(job(workload::AppKind::kGrep, 64.0 * 4, 1));
  h.run();
  // Four splits x 3 replicas cover at most half of the twelve machines, so
  // some heartbeats must have been held back waiting for locality.
  EXPECT_GT(ptr->locality_waits(), 0u);
}

TEST(DelayScheduling, RejectsNegativeDelay) {
  EXPECT_THROW(FairScheduler(-1), PreconditionError);
}

TEST(AllSchedulers, NamesAreStable) {
  EXPECT_EQ(FifoScheduler().name(), "FIFO");
  EXPECT_EQ(FairScheduler().name(), "Fair");
  EXPECT_EQ(TarazuScheduler().name(), "Tarazu");
  EXPECT_EQ(LateScheduler().name(), "LATE");
  EXPECT_EQ(CapacityScheduler().name(), "Capacity");
}

}  // namespace
}  // namespace eant::sched
