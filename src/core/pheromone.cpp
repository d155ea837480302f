#include "core/pheromone.h"

#include <algorithm>

#include "common/error.h"

namespace eant::core {

PheromoneTable::PheromoneTable(std::size_t num_machines, double rho,
                               double tau_init, double tau_min)
    : num_machines_(num_machines),
      rho_(rho),
      tau_init_(tau_init),
      tau_min_(tau_min) {
  EANT_CHECK(num_machines >= 1, "pheromone table needs machines");
  EANT_CHECK(rho >= 0.0 && rho <= 1.0, "evaporation rho must be in [0,1]");
  EANT_CHECK(tau_init > 0.0, "tau_init must be positive");
  EANT_CHECK(tau_min > 0.0 && tau_min <= tau_init,
             "tau_min must be in (0, tau_init]");
}

void PheromoneTable::add_job(mr::JobId job, const std::string& class_key) {
  EANT_CHECK(!has_job(job), "colony already registered");
  if (job >= trails_.size()) trails_.resize(job + 1);
  for (mr::TaskKind kind : {mr::TaskKind::kMap, mr::TaskKind::kReduce}) {
    const auto* prior =
        class_key.empty() ? nullptr : class_prior(class_key, kind);
    Trail& trail = trails_[job][mr::kind_index(kind)];
    if (prior != nullptr) {
      trail.tau = *prior;
    } else {
      trail.tau.assign(num_machines_, tau_init_);
    }
    refresh(trail);
    if (!class_key.empty()) classes_[{job, kind}] = class_key;
  }
}

void PheromoneTable::remove_job(mr::JobId job) {
  if (!has_job(job)) return;
  for (mr::TaskKind kind : {mr::TaskKind::kMap, mr::TaskKind::kReduce}) {
    Trail& trail = trails_[job][mr::kind_index(kind)];
    // Remember the departing colony's learning for future same-class jobs.
    // The classes_ entry is retained: the colony's final task reports are
    // still buffered in the scheduler and their deposits must reach the
    // class prior at the next control tick (a short job often finishes
    // before a single tick — without this, small jobs would never learn,
    // the pathology Sec. VI-C warns about).
    if (auto cit = classes_.find({job, kind}); cit != classes_.end()) {
      priors_[{cit->second, kind}] = std::move(trail.tau);
    }
    trail = Trail{};
  }
}

bool PheromoneTable::has_job(mr::JobId job) const {
  return job < trails_.size() && !trails_[job][0].tau.empty();
}

PheromoneTable::Trail* PheromoneTable::find(const TrailKey& key) {
  if (!has_job(key.first)) return nullptr;
  return &trails_[key.first][mr::kind_index(key.second)];
}

const PheromoneTable::Trail& PheromoneTable::row(mr::JobId job,
                                                 mr::TaskKind kind) const {
  EANT_CHECK(has_job(job), "unknown colony");
  return trails_[job][mr::kind_index(kind)];
}

double PheromoneTable::tau(mr::JobId job, mr::TaskKind kind,
                           cluster::MachineId machine) const {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  return row(job, kind).tau[machine];
}

void PheromoneTable::refresh(Trail& trail) {
  double sum = 0.0;
  double best = 0.0;
  for (double v : trail.tau) {
    sum += v;
    best = std::max(best, v);
  }
  trail.sum = sum;
  trail.max = best;
}

void PheromoneTable::apply(const DeltaMap& deposits) {
  for (const auto& [key, per_machine] : deposits) {
    EANT_CHECK(per_machine.size() == num_machines_,
               "deposit vector has wrong machine count");
    std::vector<double>* target = nullptr;
    Trail* live = find(key);
    if (live != nullptr) {
      target = &live->tau;
    } else if (auto cit = classes_.find(key); cit != classes_.end()) {
      // Colony finished mid-interval: its final deposits update the class
      // prior directly so the learning is inherited by the next same-class
      // job rather than discarded.
      auto& prior = priors_[{cit->second, key.second}];
      if (prior.empty()) prior.assign(num_machines_, tau_init_);
      target = &prior;
    } else {
      continue;  // anonymous colony finished; nothing to learn into
    }
    for (std::size_t m = 0; m < num_machines_; ++m) {
      const double updated =
          (1.0 - rho_) * (*target)[m] + rho_ * per_machine[m];
      (*target)[m] = std::max(tau_min_, updated);
    }
    // Keep the class memory fresh while colonies are alive, so a colony
    // that finishes between ticks still leaves its latest learning behind.
    if (live != nullptr) {
      refresh(*live);
      if (auto cit = classes_.find(key); cit != classes_.end()) {
        priors_[{cit->second, key.second}] = *target;
      }
    }
  }
}

void PheromoneTable::evaporate_machine(cluster::MachineId machine) {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  for (auto& pair : trails_) {
    for (Trail& trail : pair) {
      if (trail.tau.empty()) continue;
      trail.tau[machine] = tau_min_;
      refresh(trail);
    }
  }
  for (auto& [key, row] : priors_) row[machine] = tau_min_;
}

void PheromoneTable::reseed_machine(cluster::MachineId machine) {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  const auto reseed = [this, machine](std::vector<double>& row) {
    if (num_machines_ == 1) {
      row[machine] = tau_init_;
      return;
    }
    double sum = 0.0;
    for (std::size_t m = 0; m < num_machines_; ++m) {
      if (m != machine) sum += row[m];
    }
    row[machine] =
        std::max(tau_min_, sum / static_cast<double>(num_machines_ - 1));
  };
  for (auto& pair : trails_) {
    for (Trail& trail : pair) {
      if (trail.tau.empty()) continue;
      reseed(trail.tau);
      refresh(trail);
    }
  }
  for (auto& [key, row] : priors_) reseed(row);
}

void PheromoneTable::penalize(mr::JobId job, mr::TaskKind kind,
                              cluster::MachineId machine, double factor) {
  EANT_CHECK(machine < num_machines_, "machine id out of range");
  EANT_CHECK(factor >= 0.0 && factor <= 1.0, "penalty factor must be in [0,1]");
  Trail* trail = find(TrailKey{job, kind});
  if (trail == nullptr) return;
  std::vector<double>& tau = trail->tau;
  tau[machine] = std::max(tau_min_, tau[machine] * factor);
  refresh(*trail);
}

const std::vector<double>* PheromoneTable::class_prior(
    const std::string& class_key, mr::TaskKind kind) const {
  const auto it = priors_.find({class_key, kind});
  return it == priors_.end() ? nullptr : &it->second;
}

std::vector<double> PheromoneTable::trail(mr::JobId job,
                                          mr::TaskKind kind) const {
  return row(job, kind).tau;
}

PheromoneTable::Snapshot PheromoneTable::snapshot() const {
  Snapshot snap{{}, classes_, priors_};
  for (mr::JobId job = 0; job < trails_.size(); ++job) {
    if (!has_job(job)) continue;
    for (mr::TaskKind kind : {mr::TaskKind::kMap, mr::TaskKind::kReduce}) {
      snap.trails.emplace_hint(snap.trails.end(), TrailKey{job, kind},
                               trails_[job][mr::kind_index(kind)].tau);
    }
  }
  return snap;
}

void PheromoneTable::restore(const Snapshot& snap) {
  for (const auto& [key, row] : snap.trails) {
    EANT_CHECK(row.size() == num_machines_,
               "snapshot shape does not match the table");
  }
  trails_.clear();
  for (const auto& [key, tau] : snap.trails) {
    if (key.first >= trails_.size()) trails_.resize(key.first + 1);
    Trail& trail = trails_[key.first][mr::kind_index(key.second)];
    trail.tau = tau;
    refresh(trail);
  }
  classes_ = snap.classes;
  priors_ = snap.priors;
}

}  // namespace eant::core
