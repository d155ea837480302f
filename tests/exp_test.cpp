// Unit tests for the experiment harness: builders, Run lifecycle, metrics
// collection, standalone-runtime oracle, slowdown fairness, the open-loop
// motivation driver and the provisioning extension.

#include <gtest/gtest.h>

#include "cluster/catalog.h"
#include "common/error.h"
#include "exp/builders.h"
#include "exp/metrics.h"
#include "exp/motivation.h"
#include "exp/provisioning.h"
#include "exp/runner.h"

namespace eant::exp {
namespace {

TEST(Builders, SingleJobClassification) {
  const auto s = single_job(workload::AppKind::kGrep, 512.0, 2);
  EXPECT_EQ(s.size_class, workload::SizeClass::kSmall);
  EXPECT_EQ(single_job(workload::AppKind::kGrep, 4096.0, 2).size_class,
            workload::SizeClass::kMedium);
  EXPECT_EQ(single_job(workload::AppKind::kGrep, 40960.0, 2).size_class,
            workload::SizeClass::kLarge);
}

TEST(Builders, JobBatchProducesIdenticalSpecs) {
  const auto jobs = job_batch(workload::AppKind::kTerasort, 640.0, 3, 4);
  EXPECT_EQ(jobs.size(), 4u);
  for (const auto& j : jobs) {
    EXPECT_EQ(j.app, workload::AppKind::kTerasort);
    EXPECT_DOUBLE_EQ(j.input_mb, 640.0);
    EXPECT_EQ(j.num_reduces, 3);
  }
}

TEST(Runner, SchedulerKindNames) {
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kFifo), "FIFO");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kFair), "Fair");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kTarazu), "Tarazu");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kLate), "LATE");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kEAnt), "E-Ant");
}

TEST(Runner, RunsEverySchedulerKind) {
  for (SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kFair, SchedulerKind::kTarazu,
        SchedulerKind::kLate, SchedulerKind::kEAnt}) {
    RunConfig cfg;
    cfg.seed = 5;
    cfg.eant.control_interval = 60.0;
    exp::Run run(paper_fleet(), kind, cfg);
    run.submit({single_job(workload::AppKind::kWordcount, 64.0 * 8, 2)});
    run.execute();
    const auto m = run.metrics();
    EXPECT_EQ(m.scheduler_name, scheduler_kind_name(kind));
    EXPECT_EQ(m.jobs.size(), 1u);
    EXPECT_GT(m.makespan, 0.0);
  }
}

TEST(Runner, EAntAccessorOnlyForEAnt) {
  exp::Run fair(paper_fleet(), SchedulerKind::kFair);
  EXPECT_EQ(fair.eant(), nullptr);
  exp::Run eant(paper_fleet(), SchedulerKind::kEAnt);
  EXPECT_NE(eant.eant(), nullptr);
}

TEST(Runner, TimeLimitGuard) {
  RunConfig cfg;
  cfg.time_limit = 10.0;  // impossible deadline
  exp::Run run(homogeneous(cluster::catalog::atom(), 1), SchedulerKind::kFifo,
          cfg);
  run.submit({single_job(workload::AppKind::kTerasort, 64.0 * 40, 4)});
  EXPECT_THROW(run.execute(), PreconditionError);
}

TEST(Metrics, PerTypeAggregation) {
  RunConfig cfg;
  cfg.seed = 6;
  exp::Run run(paper_fleet(), SchedulerKind::kFair, cfg);
  run.submit(job_batch(workload::AppKind::kWordcount, 64.0 * 12, 2, 3));
  run.execute();
  const auto m = run.metrics();
  EXPECT_EQ(m.by_type.size(), 6u);  // six machine types in the fleet
  std::size_t maps = 0, reduces = 0;
  double energy = 0.0;
  for (const auto& t : m.by_type) {
    maps += t.completed_maps;
    reduces += t.completed_reduces;
    energy += t.energy;
    EXPECT_GE(t.avg_utilization, 0.0);
    EXPECT_LE(t.avg_utilization, 1.0);
  }
  EXPECT_EQ(maps, 3u * 12u);
  EXPECT_EQ(reduces, 3u * 2u);
  EXPECT_DOUBLE_EQ(energy, m.total_energy);
  EXPECT_EQ(m.total_maps, 36u);
  EXPECT_LE(m.local_maps, m.total_maps);
  EXPECT_EQ(m.type("Desktop").machine_count, 8u);
  EXPECT_THROW(m.type("NoSuch"), PreconditionError);
}

TEST(Metrics, TasksByAppHistogram) {
  RunConfig cfg;
  cfg.seed = 7;
  exp::Run run(paper_fleet(), SchedulerKind::kFair, cfg);
  run.submit({single_job(workload::AppKind::kGrep, 64.0 * 10, 2),
              single_job(workload::AppKind::kTerasort, 64.0 * 10, 2)});
  run.execute();
  const auto m = run.metrics();
  std::size_t grep_tasks = 0;
  for (const auto& t : m.by_type) {
    if (auto it = t.tasks_by_app.find("Grep"); it != t.tasks_by_app.end()) {
      grep_tasks += it->second;
    }
  }
  EXPECT_EQ(grep_tasks, 12u);  // 10 maps + 2 reduces
}

TEST(Metrics, MeanCompletionByClass) {
  RunConfig cfg;
  cfg.seed = 8;
  exp::Run run(paper_fleet(), SchedulerKind::kFair, cfg);
  run.submit({single_job(workload::AppKind::kGrep, 64.0 * 4, 1),
              single_job(workload::AppKind::kWordcount, 64.0 * 4, 1)});
  run.execute();
  const auto m = run.metrics();
  EXPECT_GT(m.mean_completion(), 0.0);
  EXPECT_GT(m.mean_completion("Grep-S"), 0.0);
  EXPECT_THROW(m.mean_completion("Grep-L"), PreconditionError);
}

TEST(Runner, StandaloneRuntimeIsPositiveAndStable) {
  const auto job = single_job(workload::AppKind::kWordcount, 64.0 * 8, 2);
  const Seconds t1 = standalone_runtime(paper_fleet(), job);
  const Seconds t2 = standalone_runtime(paper_fleet(), job);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Runner, SlowdownFairnessComputation) {
  RunMetrics m;
  JobMetrics a;
  a.class_name = "X";
  a.completion_time = 100.0;
  JobMetrics b = a;
  b.completion_time = 300.0;
  m.jobs = {a, b};
  const std::map<std::string, Seconds> standalone{{"X", 100.0}};
  // Slowdowns 1 and 3 -> variance 1 -> fairness 1.
  EXPECT_NEAR(slowdown_fairness(m, standalone), 1.0, 1e-9);
  // Equal slowdowns -> clamped large fairness.
  m.jobs = {a, a};
  EXPECT_NEAR(slowdown_fairness(m, standalone), 1e6, 1.0);
  EXPECT_THROW(slowdown_fairness(m, {}), PreconditionError);
}

// --- motivation driver ----------------------------------------------------------

TEST(Motivation, StreamBasicAccounting) {
  const auto r = run_task_stream(cluster::catalog::desktop(),
                                 workload::AppKind::kWordcount, 10.0,
                                 3600.0, 4, 42);
  EXPECT_GT(r.arrivals, 500u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_LE(r.completed, r.arrivals);
  EXPECT_GT(r.energy, r.idle_energy);  // did real work
  EXPECT_GT(r.mean_power, cluster::catalog::desktop().idle_power);
  EXPECT_GT(r.throughput_per_watt(), 0.0);
}

TEST(Motivation, DesktopWinsAtLowRateXeonAtHighRate) {
  // The Fig. 1(a) crossover (the motivation study streams 16 MB tasks;
  // concurrency is sized to the machine's cores).
  const auto d_low = run_task_stream(cluster::catalog::desktop(),
                                     workload::AppKind::kWordcount, 4.0,
                                     4 * 3600.0, 4, 1, 16.0);
  const auto x_low = run_task_stream(cluster::catalog::xeon_e5(),
                                     workload::AppKind::kWordcount, 4.0,
                                     4 * 3600.0, 24, 1, 16.0);
  EXPECT_GT(d_low.throughput_per_watt(), x_low.throughput_per_watt());

  const auto d_high = run_task_stream(cluster::catalog::desktop(),
                                      workload::AppKind::kWordcount, 20.0,
                                      4 * 3600.0, 4, 1, 16.0);
  const auto x_high = run_task_stream(cluster::catalog::xeon_e5(),
                                      workload::AppKind::kWordcount, 20.0,
                                      4 * 3600.0, 24, 1, 16.0);
  EXPECT_GT(x_high.throughput_per_watt(), d_high.throughput_per_watt());
}

TEST(Motivation, XeonIdleShareDominatesAtLightLoad) {
  // Fig. 1(b): at light load most Xeon power is idle-system power.
  const auto x = run_task_stream(cluster::catalog::xeon_e5(),
                                 workload::AppKind::kWordcount, 10.0,
                                 3600.0, 24, 2, 16.0);
  EXPECT_GT(x.idle_energy, 0.6 * x.energy);
  const auto d = run_task_stream(cluster::catalog::desktop(),
                                 workload::AppKind::kWordcount, 10.0,
                                 3600.0, 4, 2, 16.0);
  EXPECT_LT(d.idle_energy / d.energy, x.idle_energy / x.energy);
}

TEST(Motivation, PhaseBreakdownMatchesFigOneD) {
  const auto wc = phase_breakdown(workload::AppKind::kWordcount);
  const auto gr = phase_breakdown(workload::AppKind::kGrep);
  const auto ts = phase_breakdown(workload::AppKind::kTerasort);
  // Shares are normalised.
  EXPECT_NEAR(wc.map + wc.shuffle + wc.reduce, 1.0, 1e-9);
  // Wordcount is map-intensive; Grep/Terasort are shuffle/reduce-intensive.
  EXPECT_GT(wc.map, 0.6);
  EXPECT_GT(gr.shuffle + gr.reduce, 0.5);
  EXPECT_GT(ts.shuffle + ts.reduce, 0.5);
  EXPECT_GT(wc.map, gr.map);
  EXPECT_GT(wc.map, ts.map);
}

// --- provisioning extension ------------------------------------------------------

TEST(Provisioning, PaperFleetTypesLayout) {
  const auto fleet = paper_fleet_types();
  EXPECT_EQ(fleet.size(), 16u);
  EXPECT_EQ(fleet[0].name, "Desktop");
  EXPECT_EQ(fleet[15].name, "Atom");
}

TEST(Provisioning, CoveringSubsetRespectsConstraints) {
  const auto fleet = paper_fleet_types();
  const auto plan = covering_subset(fleet, 0.5, 3);
  EXPECT_GE(plan.active.size(), 3u);
  EXPECT_LE(plan.active.size(), fleet.size());
  double kept = 0.0, total = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    total += fleet[i].cores * fleet[i].cpu_factor;
  }
  for (std::size_t i : plan.active) {
    kept += fleet[i].cores * fleet[i].cpu_factor;
  }
  EXPECT_GE(kept, 0.5 * total);
  EXPECT_THROW(covering_subset(fleet, 0.0), PreconditionError);
  EXPECT_THROW(covering_subset({}, 0.5), PreconditionError);
}

TEST(Provisioning, RunChargesSleepingMachines) {
  const auto fleet = paper_fleet_types();
  const auto plan = covering_subset(fleet, 0.6);
  RunConfig cfg;
  cfg.seed = 9;
  const auto result = run_provisioned(
      fleet, plan, SchedulerKind::kFair,
      {single_job(workload::AppKind::kWordcount, 64.0 * 8, 2)}, cfg);
  EXPECT_GT(result.sleeping_energy, 0.0);
  EXPECT_GT(result.total_energy(), result.metrics.total_energy);
  const std::size_t sleeping = fleet.size() - plan.active.size();
  EXPECT_NEAR(result.sleeping_energy,
              sleeping * plan.sleep_power * result.metrics.makespan, 1e-6);
}

TEST(Provisioning, SavesEnergyUnderLightLoad) {
  // Under light load the full fleet burns idle power; a covering subset
  // should cut total energy even after charging standby power.
  const auto fleet = paper_fleet_types();
  RunConfig cfg;
  cfg.seed = 10;
  const std::vector<workload::JobSpec> light = {
      single_job(workload::AppKind::kGrep, 64.0 * 6, 2)};

  exp::Run full(paper_fleet(), SchedulerKind::kFair, cfg);
  full.submit(light);
  full.execute();
  const double full_energy = full.metrics().total_energy;

  const auto plan = covering_subset(fleet, 0.4);
  const auto provisioned =
      run_provisioned(fleet, plan, SchedulerKind::kFair, light, cfg);
  EXPECT_LT(provisioned.total_energy(), full_energy);
}

}  // namespace
}  // namespace eant::exp
