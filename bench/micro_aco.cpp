// Microbenchmarks (google-benchmark) of E-Ant's hot paths.  The paper
// reports the self-adaptive ACO step at ~120 ms per 5-minute control
// interval on their JobTracker (Sec. VI-D); these benches measure our
// equivalents: deposit computation, the exchange transforms, pheromone
// application and the per-heartbeat job sampler, plus the event queue.

#include <benchmark/benchmark.h>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/aco.h"
#include "core/exchange.h"
#include "core/pheromone.h"
#include "sim/simulator.h"

using namespace eant;

namespace {

std::vector<core::EstimatedReport> make_interval(std::size_t tasks,
                                                 std::size_t jobs,
                                                 std::size_t machines) {
  Rng rng(1);
  std::vector<core::EstimatedReport> interval;
  interval.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    core::EstimatedReport er;
    er.report.spec.job = i % jobs;
    er.report.spec.kind =
        i % 5 == 0 ? mr::TaskKind::kReduce : mr::TaskKind::kMap;
    er.report.machine = static_cast<cluster::MachineId>(
        rng.uniform_int(0, static_cast<std::int64_t>(machines) - 1));
    er.energy = rng.uniform(100.0, 2000.0);
    interval.push_back(er);
  }
  return interval;
}

void BM_ComputeDeposits(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const auto interval = make_interval(tasks, 16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_deposits(interval, 16));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_ComputeDeposits)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FullControlTickPipeline(benchmark::State& state) {
  // The complete per-interval update for a 16-machine, 16-colony cluster:
  // deposits -> machine exchange -> job exchange -> centring -> apply.
  const auto interval =
      make_interval(static_cast<std::size_t>(state.range(0)), 16, 16);
  sim::Simulator sim;
  cluster::Cluster cluster(sim);
  cluster::add_paper_fleet(cluster);
  core::PheromoneTable table(16, 0.5);
  for (mr::JobId j = 0; j < 16; ++j) table.add_job(j, "class");
  const auto key = [](mr::JobId j) {
    return j % 2 == 0 ? std::string("Wordcount") : std::string("Grep");
  };
  for (auto _ : state) {
    auto deposits = core::compute_deposits(interval, 16);
    deposits = core::machine_level_exchange(deposits, cluster);
    deposits = core::job_level_exchange(deposits, key);
    deposits = core::apply_negative_feedback(deposits, key);
    deposits = core::center_deposits(deposits, 1.0);
    table.apply(deposits);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FullControlTickPipeline)->Arg(1000)->Arg(10000);

void BM_SampleJob(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  core::PheromoneTable table(16, 0.5);
  std::vector<mr::JobId> candidates;
  for (mr::JobId j = 0; j < jobs; ++j) {
    table.add_job(j);
    candidates.push_back(j);
  }
  Rng rng(2);
  const std::vector<double> boosts(jobs, core::eta_boost(1.0, 0.1));
  std::vector<double> weights;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_job(
        table, rng, candidates, boosts, mr::TaskKind::kMap, 3, weights));
  }
}
BENCHMARK(BM_SampleJob)->Arg(4)->Arg(16)->Arg(87);

void BM_EventQueue(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(3);
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(rng.uniform(0.0, 1000.0), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
