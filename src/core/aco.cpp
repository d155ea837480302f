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

double eta_boost(double eta, double beta) {
  EANT_CHECK(beta >= 0.0, "beta must be non-negative");
  return beta <= 0.0 ? 1.0 : std::pow(eta, beta);
}

std::optional<mr::JobId> sample_job(const PheromoneTable& table, Rng& rng,
                                    const std::vector<mr::JobId>& candidates,
                                    const std::vector<double>& boosts,
                                    mr::TaskKind kind,
                                    cluster::MachineId machine,
                                    std::vector<double>& weights) {
  if (candidates.empty()) return std::nullopt;
  EANT_CHECK(boosts.size() == candidates.size(),
             "one boost per candidate required");
  EANT_CHECK(machine < table.num_machines(), "machine id out of range");

  weights.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PheromoneTable::Trail& row = table.row(candidates[i], kind);
    EANT_ASSERT(row.sum > 0.0, "pheromone row sum must stay positive");
    const double normalized_tau = row.tau[machine] / row.sum;
    weights.push_back(normalized_tau * boosts[i]);
  }
  return candidates[rng.weighted_index(weights)];
}

}  // namespace eant::core
