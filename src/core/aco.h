// ACO mechanics (paper Sec. IV-C): deposit computation from task-energy
// feedback (Eq. 5) and probabilistic job sampling (Eq. 3/8).
//
// Eq. 8 defines the task->machine probability
//     P(j, m) = tau(j,m) * eta(j)^beta / sum over m' of tau(j,m')
// Hadoop assigns when machine m heartbeats (pull model), so the sampler
// draws a *job* for the given machine with weight proportional to exactly
// that expression — the pull-model dual documented in DESIGN.md.

#pragma once

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/pheromone.h"

namespace eant::core {

/// A completed task report annotated with its Eq. 2 energy estimate.
struct EstimatedReport {
  mr::TaskReport report;
  Joules energy = 0.0;
};

/// Eq. 5 over one control interval: for each colony (job, kind), the deposit
/// of task n on machine m is  (mean energy of the colony's completed tasks)
/// / (energy of task n); deposits are summed per machine (Eq. 4's inner
/// sum).  Task energies are floored at 1 J to keep ratios finite.
DeltaMap compute_deposits(const std::vector<EstimatedReport>& interval,
                          std::size_t num_machines);

/// Eq. 8's heuristic factor eta^beta (1 when beta is 0).  Throws
/// PreconditionError when beta is negative.
double eta_boost(double eta, double beta);

/// Samples one candidate job for a slot on `machine` with probability
/// proportional to  tau(j,kind,machine)/row_sum(j,kind) * boosts[i], where
/// boosts[i] is candidate i's eta_boost.  `weights` is scratch space the
/// caller keeps, so a call allocates nothing once it has grown.  Returns
/// nothing when candidates is empty.
std::optional<mr::JobId> sample_job(const PheromoneTable& table, Rng& rng,
                                    const std::vector<mr::JobId>& candidates,
                                    const std::vector<double>& boosts,
                                    mr::TaskKind kind,
                                    cluster::MachineId machine,
                                    std::vector<double>& weights);

}  // namespace eant::core
