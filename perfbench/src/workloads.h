// The benchmark's three workloads.  Each one is a fleet, a scheduler, a
// RunConfig and a job list drawn from the seed; why each exists and what it
// stresses is in ../README.md.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/builders.h"
#include "exp/runner.h"
#include "workload/job_spec.h"

namespace eant::perfbench {

/// Everything one run needs.  generate() is kept apart from the rest so the
/// traced mode can time workload generation as its own span.
struct Workload {
  exp::ClusterBuilder fleet;
  exp::SchedulerKind scheduler = exp::SchedulerKind::kFifo;
  exp::RunConfig config;
  std::function<std::vector<workload::JobSpec>()> generate;
};

/// The workload names, in the order the docs list them.
const std::vector<std::string>& workload_names();

/// Builds the named workload for one seed; throws PreconditionError for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace eant::perfbench
