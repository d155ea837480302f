#include "exp/sweep.h"

#include "common/error.h"
#include "exp/parallel_for.h"

namespace eant::exp {

namespace {

SeedOutcome run_cell(const ClusterBuilder& build_cluster,
                     SchedulerKind scheduler, const RunConfig& base,
                     const std::vector<workload::JobSpec>& jobs,
                     std::uint64_t seed) {
  RunConfig cfg = base;
  cfg.seed = seed;
  Run run(build_cluster, scheduler, cfg);
  run.submit(jobs);
  run.execute();
  return SeedOutcome{seed, run.metrics()};
}

}  // namespace

std::vector<SeedOutcome> sweep_seeds(const ClusterBuilder& build_cluster,
                                     SchedulerKind scheduler,
                                     const RunConfig& base,
                                     const std::vector<workload::JobSpec>& jobs,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepConfig& sc) {
  EANT_CHECK(!seeds.empty(), "sweep needs at least one seed");
  std::vector<SeedOutcome> out(seeds.size());
  parallel_for(seeds.size(), sc.threads, [&](std::size_t i) {
    out[i] = run_cell(build_cluster, scheduler, base, jobs, seeds[i]);
  });
  return out;
}

}  // namespace eant::exp
