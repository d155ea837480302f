#include "core/aco.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.h"

namespace eant::core {
namespace {

/// Floor of a task's energy in Eq. 5's ratios, which guards them against
/// near-zero estimates.
constexpr Joules kEnergyFloor = 1.0;

}  // namespace

DeltaMap compute_deposits(const std::vector<EstimatedReport>& interval,
                          std::size_t num_machines) {
  // Mean task energy per colony (Eq. 5's numerator).
  struct Acc {
    Joules sum = 0.0;
    std::size_t count = 0;
  };
  std::map<TrailKey, Acc> means;
  for (const auto& er : interval) {
    EANT_CHECK(er.energy >= 0.0, "negative task energy estimate");
    auto& acc = means[{er.report.spec.job, er.report.spec.kind}];
    acc.sum += std::max(er.energy, kEnergyFloor);
    ++acc.count;
  }

  DeltaMap deposits;
  for (const auto& er : interval) {
    const TrailKey key{er.report.spec.job, er.report.spec.kind};
    const auto& acc = means.at(key);
    const Joules avg = acc.sum / static_cast<double>(acc.count);
    const Joules e = std::max(er.energy, kEnergyFloor);
    auto& row = deposits[key];
    if (row.empty()) row.assign(num_machines, 0.0);
    EANT_CHECK(er.report.machine < num_machines, "machine id out of range");
    row[er.report.machine] += avg / e;
  }
  return deposits;
}

std::optional<mr::JobId> sample_job(
    const PheromoneTable& table, Rng& rng,
    const std::vector<mr::JobId>& candidates, mr::TaskKind kind,
    cluster::MachineId machine,
    const std::function<double(mr::JobId)>& eta, double beta) {
  if (candidates.empty()) return std::nullopt;
  EANT_CHECK(static_cast<bool>(eta), "eta function must be callable");
  EANT_CHECK(beta >= 0.0, "beta must be non-negative");
  EANT_CHECK(machine < table.num_machines(), "machine id out of range");

  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (mr::JobId j : candidates) {
    const PheromoneTable::Trail& row = table.row(j, kind);
    EANT_ASSERT(row.sum > 0.0, "pheromone row sum must stay positive");
    const double normalized_tau = row.tau[machine] / row.sum;
    const double boost = beta <= 0.0 ? 1.0 : std::pow(eta(j), beta);
    weights.push_back(normalized_tau * boost);
  }
  return candidates[rng.weighted_index(weights)];
}

}  // namespace eant::core
