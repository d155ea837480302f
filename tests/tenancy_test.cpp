// Multi-tenant continuous-traffic suite: the trace generator (sortedness,
// horizon bounds, tenant tagging, deadlines, per-tenant stream independence,
// determinism), tenant-mode Capacity scheduling (queue mapping, weighted
// max-min shares, EDF deadline boost, audited preemption), and the
// per-tenant SLO metrics in RunMetrics.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "hdfs/namenode.h"
#include "mapreduce/job_tracker.h"
#include "sched/capacity.h"
#include "sim/simulator.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"

namespace eant {
namespace {

// --- TrafficGenerator -------------------------------------------------------

TEST(Traffic, ThreeTenantMixIsSortedTaggedAndBounded) {
  auto mix = tenancy::presets::three_tenant_mix(12.0 * 3600.0);
  const Seconds horizon = mix.horizon;
  const tenancy::TrafficGenerator gen(std::move(mix));
  Rng rng(5);
  const auto jobs = gen.generate(rng);
  ASSERT_GT(jobs.size(), 100u);

  std::map<workload::TenantId, std::size_t> per_tenant;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    EXPECT_GE(j.submit_time, 0.0);
    EXPECT_LT(j.submit_time, horizon);
    if (i > 0) {
      EXPECT_GE(j.submit_time, jobs[i - 1].submit_time);
    }
    EXPECT_GT(j.input_mb, 0.0);
    EXPECT_GE(j.num_reduces, 1);
    ++per_tenant[j.tenant];
    // The interactive tenant carries a deadline on every job; deadlines are
    // absolute and strictly after submission.
    if (j.tenant == 1) {
      EXPECT_TRUE(j.has_deadline());
      EXPECT_GT(j.deadline, j.submit_time);
    }
  }
  ASSERT_EQ(per_tenant.size(), 3u);
  for (const auto& [tenant, count] : per_tenant) EXPECT_GT(count, 10u);
}

TEST(Traffic, DeterministicGivenSeedSensitiveToSeed) {
  auto make = [](std::uint64_t seed) {
    tenancy::TrafficGenerator gen(
        tenancy::presets::three_tenant_mix(6.0 * 3600.0));
    Rng rng(seed);
    return gen.generate(rng);
  };
  const auto a = make(7);
  const auto b = make(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_DOUBLE_EQ(a[i].input_mb, b[i].input_mb);
    EXPECT_DOUBLE_EQ(a[i].deadline, b[i].deadline);
  }

  const auto c = make(8);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].submit_time < c[i].submit_time ||
              c[i].submit_time < a[i].submit_time;
  }
  EXPECT_TRUE(differs);
}

TEST(Traffic, TenantStreamsAreIndependent) {
  // Each tenant samples from its own forked stream keyed by tenant id, so
  // removing the other tenants must not perturb the survivor's trace.
  auto full_mix = tenancy::presets::three_tenant_mix(6.0 * 3600.0);
  auto solo_mix = tenancy::presets::three_tenant_mix(6.0 * 3600.0);
  solo_mix.tenants.erase(solo_mix.tenants.begin() + 2);
  solo_mix.tenants.erase(solo_mix.tenants.begin());
  ASSERT_EQ(solo_mix.tenants.size(), 1u);
  ASSERT_EQ(solo_mix.tenants[0].profile.tenant, 1u);

  const tenancy::TrafficGenerator full_gen(std::move(full_mix));
  const tenancy::TrafficGenerator solo_gen(std::move(solo_mix));
  Rng r1(9), r2(9);
  const auto full = full_gen.generate(r1);
  const auto solo = solo_gen.generate(r2);

  std::vector<workload::JobSpec> filtered;
  for (const auto& j : full) {
    if (j.tenant == 1) filtered.push_back(j);
  }
  ASSERT_EQ(filtered.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_DOUBLE_EQ(filtered[i].submit_time, solo[i].submit_time);
    EXPECT_DOUBLE_EQ(filtered[i].input_mb, solo[i].input_mb);
    EXPECT_EQ(filtered[i].app, solo[i].app);
  }
}

TEST(Traffic, RejectsBadConfig) {
  EXPECT_THROW(tenancy::TrafficGenerator(tenancy::TrafficConfig{}),
               PreconditionError);

  tenancy::TrafficConfig no_arrivals;
  no_arrivals.tenants.push_back(tenancy::TenantTraffic{});
  no_arrivals.tenants[0].profile.apps = {{workload::AppKind::kGrep, 1.0}};
  EXPECT_THROW(tenancy::TrafficGenerator(std::move(no_arrivals)),
               PreconditionError);

  tenancy::TrafficConfig no_apps;
  no_apps.tenants.push_back(tenancy::TenantTraffic{});
  no_apps.tenants[0].arrivals =
      std::make_unique<workload::PoissonArrivals>(1.0);
  no_apps.tenants[0].profile.apps.clear();
  EXPECT_THROW(tenancy::TrafficGenerator(std::move(no_apps)),
               PreconditionError);
}

// --- Tenant-mode Capacity: unit harness -------------------------------------

workload::JobSpec tenant_job(workload::TenantId tenant, Megabytes mb,
                             Seconds deadline = -1.0) {
  workload::JobSpec s;
  s.app = workload::AppKind::kWordcount;
  s.input_mb = mb;
  s.num_reduces = 1;
  s.tenant = tenant;
  s.deadline = deadline;
  return s;
}

struct Harness {
  Harness(sched::TenantShareConfig share,
          std::vector<std::pair<cluster::MachineType, std::size_t>> fleet)
      : cluster(sim),
        scheduler(std::make_unique<sched::CapacityScheduler>(std::move(share))),
        noise(mr::NoiseConfig::none(), Rng(21)) {
    std::size_t total = 0;
    for (const auto& [type, count] : fleet) {
      cluster.add_machines(type, count);
      total += count;
    }
    namenode = std::make_unique<hdfs::NameNode>(Rng(22), total);
    jt = std::make_unique<mr::JobTracker>(sim, cluster, *namenode, *scheduler,
                                          noise, mr::JobTrackerConfig{});
    jt->start_trackers();
  }

  void run() {
    while (!jt->all_done()) {
      ASSERT_LE(sim.now(), 7 * 24 * 3600.0);
      ASSERT_TRUE(sim.step());
    }
  }

  sched::CapacityScheduler& capacity() {
    return static_cast<sched::CapacityScheduler&>(*scheduler);
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  std::unique_ptr<sched::CapacityScheduler> scheduler;
  mr::NoiseModel noise;
  std::unique_ptr<hdfs::NameNode> namenode;
  std::unique_ptr<mr::JobTracker> jt;
};

sched::TenantShareConfig two_tenants(double w0, double w1,
                                     bool preemption = false) {
  sched::TenantShareConfig share;
  share.tenants = {{0, "alpha", w0}, {1, "beta", w1}};
  share.preemption = preemption;
  return share;
}

TEST(TenantCapacity, RejectsBadShareConfig) {
  sched::TenantShareConfig dup = two_tenants(1.0, 1.0);
  dup.tenants[1].tenant = 0;
  EXPECT_THROW(sched::CapacityScheduler{std::move(dup)}, PreconditionError);

  sched::TenantShareConfig zero_weight = two_tenants(1.0, 0.0);
  EXPECT_THROW(sched::CapacityScheduler{std::move(zero_weight)},
               PreconditionError);
}

TEST(TenantCapacity, JobsMapToTenantQueuesUnknownTenantGetsOne) {
  Harness h(two_tenants(2.0, 1.0), {{cluster::catalog::desktop(), 2}});
  EXPECT_TRUE(h.capacity().tenant_mode());
  EXPECT_EQ(h.capacity().num_queues(), 2u);

  const auto j0 = h.jt->submit_now(tenant_job(0, 64.0 * 2));
  const auto j1 = h.jt->submit_now(tenant_job(1, 64.0 * 2));
  const auto j2 = h.jt->submit_now(tenant_job(7, 64.0 * 2));
  EXPECT_EQ(h.capacity().queue_of(j0), 0u);
  EXPECT_EQ(h.capacity().queue_of(j1), 1u);
  // The unconfigured tenant 7 gets a fresh weight-1 queue on first sight.
  EXPECT_EQ(h.capacity().queue_of(j2), 2u);
  EXPECT_EQ(h.capacity().num_queues(), 3u);
  EXPECT_THROW(h.capacity().queue_of(j2 + 1000), PreconditionError);
  h.run();
}

TEST(TenantCapacity, WeightedSharesTwoToOneOccupancy) {
  // Both tenants keep a deep map backlog; with weights 2:1 the busy-period
  // slot occupancy must track the weights, not the backlog sizes.
  Harness h(two_tenants(2.0, 1.0), {{cluster::catalog::desktop(), 3}});
  std::vector<mr::JobId> mine[2];
  for (int i = 0; i < 6; ++i) {
    mine[0].push_back(h.jt->submit_now(tenant_job(0, 64.0 * 20)));
    mine[1].push_back(h.jt->submit_now(tenant_job(1, 64.0 * 20)));
  }

  double busy[2] = {0.0, 0.0};
  std::size_t samples = 0;
  h.jt->set_report_listener([&](const mr::TaskReport&) {
    bool backlogged = true;
    std::size_t running[2] = {0, 0};
    for (int t = 0; t < 2; ++t) {
      bool any_pending = false;
      for (const auto id : mine[t]) {
        const auto& js = h.jt->job(id);
        running[t] += js.running(mr::TaskKind::kMap);
        any_pending = any_pending || js.has_pending(mr::TaskKind::kMap);
      }
      backlogged = backlogged && any_pending;
    }
    if (!backlogged) return;
    busy[0] += static_cast<double>(running[0]);
    busy[1] += static_cast<double>(running[1]);
    ++samples;
  });
  h.run();

  ASSERT_GT(samples, 50u);
  ASSERT_GT(busy[1], 0.0);
  const double ratio = busy[0] / busy[1];
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);
}

TEST(TenantCapacity, DeadlineJobOvertakesFifoBacklog) {
  // Within a queue, jobs without deadlines run FIFO — a late small job
  // starves behind the head (the Capacity contract).  Giving it a deadline
  // flips the order: EDF schedules it ahead of the backlog.
  auto finish_order = [](Seconds deadline) {
    sched::TenantShareConfig share;
    share.tenants = {{0, "solo", 1.0}};
    share.preemption = false;
    Harness h(std::move(share), {{cluster::catalog::desktop(), 1}});
    const auto big = h.jt->submit_now(tenant_job(0, 64.0 * 16));
    const auto small = h.jt->submit_now(tenant_job(0, 64.0 * 2, deadline));
    h.run();
    return h.jt->job(small).finish_time() < h.jt->job(big).finish_time();
  };
  EXPECT_FALSE(finish_order(-1.0));  // FIFO: the small job waits its turn
  EXPECT_TRUE(finish_order(120.0));  // EDF: the deadline job jumps the queue
}

// --- Preemption and SLO metrics (full exp::Run stack) -----------------------

/// A deliberately slow machine: ~128 s Wordcount maps, so a fleet saturated
/// by one tenant frees no slot for minutes — the regime where waiting for
/// natural completions cannot deliver a late tenant's share and the sweep
/// must kill running work.
cluster::MachineType glacial() {
  cluster::MachineType t;
  t.name = "Glacial";
  t.cores = 8;
  t.cpu_factor = 0.05;
  t.io_mbps = 200.0;
  return t;
}

TEST(TenantCapacity, PreemptionRebalancesStarvedTenantAuditClean) {
  exp::RunConfig cfg;
  cfg.seed = 17;
  cfg.audit.enabled = true;
  cfg.job_tracker.speculative_execution = false;
  cfg.tenancy = two_tenants(1.0, 1.0, /*preemption=*/true);

  exp::Run run(exp::homogeneous(glacial(), 4), exp::SchedulerKind::kCapacity,
               cfg);
  // Tenant 0 floods all 16 map slots with ~128 s tasks; tenant 1 arrives at
  // t=30 into a fleet that frees nothing for minutes, so only preemption can
  // deliver its share.
  std::vector<workload::JobSpec> jobs;
  for (int i = 0; i < 2; ++i) jobs.push_back(tenant_job(0, 64.0 * 20));
  workload::JobSpec late = tenant_job(1, 64.0 * 5);
  late.submit_time = 30.0;
  jobs.push_back(late);
  run.submit(jobs);
  run.execute();

  const exp::RunMetrics m = run.metrics();
  EXPECT_GT(m.preempted_attempts, 0u);
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_TRUE(m.audit.clean());
  // Victims are tenant 0's attempts; the starved tenant loses nothing.
  EXPECT_GT(m.tenant(0).preemptions, 0u);
  EXPECT_EQ(m.tenant(1).preemptions, 0u);
  auto* cap = dynamic_cast<sched::CapacityScheduler*>(&run.scheduler());
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->preemptions(), m.preempted_attempts);

  // Preemption is wasted work: the killed attempts land in the waste ledger,
  // not in failed jobs.
  EXPECT_GT(m.wasted_task_seconds, 0.0);
}

TEST(TenantCapacity, PreemptionOffNeverKills) {
  exp::RunConfig cfg;
  cfg.seed = 17;
  cfg.audit.enabled = true;
  cfg.job_tracker.speculative_execution = false;
  cfg.tenancy = two_tenants(1.0, 1.0, /*preemption=*/false);

  exp::Run run(exp::homogeneous(glacial(), 4), exp::SchedulerKind::kCapacity,
               cfg);
  std::vector<workload::JobSpec> jobs;
  for (int i = 0; i < 2; ++i) jobs.push_back(tenant_job(0, 64.0 * 20));
  workload::JobSpec late = tenant_job(1, 64.0 * 5);
  late.submit_time = 30.0;
  jobs.push_back(late);
  run.submit(jobs);
  run.execute();

  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.preempted_attempts, 0u);
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_TRUE(m.audit.clean());
}

TEST(TenantMetrics, DeadlineMissesAndPerTenantAggregates) {
  exp::RunConfig cfg;
  cfg.seed = 19;
  cfg.tenancy = two_tenants(1.0, 1.0);

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  // Tenant 0: one impossible deadline (1 s) and one comfortable one.
  std::vector<workload::JobSpec> jobs;
  jobs.push_back(tenant_job(0, 64.0 * 8, 1.0));
  jobs.push_back(tenant_job(0, 64.0 * 4, 7200.0));
  jobs.push_back(tenant_job(1, 64.0 * 4));
  run.submit(jobs);
  run.execute();

  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.deadline_misses, 1u);
  ASSERT_EQ(m.jobs.size(), 3u);
  std::size_t missed = 0;
  for (const auto& j : m.jobs) {
    if (j.missed_deadline) {
      ++missed;
      EXPECT_EQ(j.tenant, 0u);
      EXPECT_DOUBLE_EQ(j.deadline, 1.0);
    }
  }
  EXPECT_EQ(missed, 1u);

  const exp::TenantMetrics& t0 = m.tenant(0);
  EXPECT_EQ(t0.jobs, 2u);
  EXPECT_EQ(t0.deadline_jobs, 2u);
  EXPECT_EQ(t0.deadline_misses, 1u);
  EXPECT_GT(t0.latency_p50, 0.0);
  EXPECT_GE(t0.latency_p99, t0.latency_p50);
  EXPECT_GT(t0.energy_per_job_kj(), 0.0);
  EXPECT_GT(t0.slot_seconds, 0.0);

  const exp::TenantMetrics& t1 = m.tenant(1);
  EXPECT_EQ(t1.jobs, 1u);
  EXPECT_EQ(t1.deadline_jobs, 0u);
  EXPECT_EQ(t1.deadline_misses, 0u);
  EXPECT_THROW(m.tenant(42), PreconditionError);
}

TEST(TenantCapacity, ContinuousTrafficSliceIsDeterministic) {
  // End-to-end determinism of the bench path: same seed, same trace, same
  // tenant-mode run -> identical audit digests.
  auto digest = [] {
    auto mix = tenancy::presets::three_tenant_mix(1800.0, 4.0);
    sched::TenantShareConfig share;
    for (const auto& t : mix.tenants) {
      share.tenants.push_back(sched::TenantQueue{
          t.profile.tenant, t.profile.name, t.profile.weight});
    }
    const tenancy::TrafficGenerator gen(std::move(mix));
    Rng rng(23);
    exp::RunConfig cfg;
    cfg.seed = 23;
    cfg.audit.enabled = true;
    cfg.tenancy = share;
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
    run.submit(gen.generate(rng));
    run.execute();
    const exp::RunMetrics m = run.metrics();
    EXPECT_TRUE(m.audit.clean());
    EXPECT_EQ(m.jobs_failed, 0u);
    return m.determinism_digest;
  };
  EXPECT_EQ(digest(), digest());
}

}  // namespace
}  // namespace eant
