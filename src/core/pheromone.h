// Pheromone table for E-Ant's ant-colony optimisation (paper Sec. IV-C).
//
// Each job is an ant colony; the trail value tau(j, m) encodes the learned
// goodness (energy efficiency) of assigning the job's tasks to machine m.
// Trails are kept per task kind (map/reduce) because the two phases of the
// same job have very different resource profiles — this is what lets E-Ant
// place maps and reduces differently (the paper's Fig. 9(b)).
//
// Updates follow Eq. 4 (evaporation + deposit), Eq. 5 (deposit = average
// task energy of the colony / this task's energy) and Eq. 6 (negative
// cross-colony feedback).  A tau floor keeps every path explorable, the
// standard MMAS-style guard against probabilities collapsing to zero.

#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/machine.h"
#include "mapreduce/task.h"

namespace eant::core {

/// Identifies one colony trail: a job's map trails or reduce trails.
using TrailKey = std::pair<mr::JobId, mr::TaskKind>;

/// Per-interval pheromone deposits: for each trail, the summed deposit on
/// each machine (Eq. 4's  sum over n of delta-tau^n).
using DeltaMap = std::map<TrailKey, std::vector<double>>;

/// The tau(j, kind, m) table with evaporation and floor.
class PheromoneTable {
 public:
  PheromoneTable(std::size_t num_machines, double rho, double tau_init = 1.0,
                 double tau_min = 0.05);

  /// Creates the two trails (map/reduce) of a new colony.  When a non-empty
  /// class key is given and colonies of that class have learned before, the
  /// new trails start from the class's remembered trail state instead of
  /// tau_init — the job-level exchange extended across time, without which
  /// a short job always dies before its first pheromone update and every
  /// recurring workload would relearn from scratch (Sec. VI-C notes exactly
  /// this small-job pathology).
  void add_job(mr::JobId job, const std::string& class_key = "");

  /// Drops a finished colony's trails.
  void remove_job(mr::JobId job);

  bool has_job(mr::JobId job) const;

  /// One live trail: tau per machine, with its sum and max cached.  Every
  /// write to `tau` recomputes both in machine order from 0.0 (never by
  /// adjusting the old value), so they equal a fresh scan bit for bit.
  struct Trail {
    std::vector<double> tau;
    double sum = 0.0;  ///< Eq. 3/8's denominator
    double max = 0.0;  ///< the colony's best-ranked machine's tau
  };

  /// The live trail of a colony: tau, sum and max in one lookup (an index
  /// into a vector by JobId).
  const Trail& row(mr::JobId job, mr::TaskKind kind) const;

  double tau(mr::JobId job, mr::TaskKind kind,
             cluster::MachineId machine) const;

  /// Sum of tau over machines for a trail — Eq. 3/8's denominator.
  double row_sum(mr::JobId job, mr::TaskKind kind) const {
    return row(job, kind).sum;
  }

  /// Largest tau in a trail (the colony's best-ranked machine).
  double row_max(mr::JobId job, mr::TaskKind kind) const {
    return row(job, kind).max;
  }

  /// Applies one control-interval update: tau <- (1-rho) tau + rho * deposit,
  /// clamped at tau_min.  Deposits for unknown (already removed) trails are
  /// ignored.  Trails with no deposit this interval are left untouched,
  /// matching the paper's rule that "the higher the task completion rate,
  /// the greater the chance of updating the pheromone value of that path".
  void apply(const DeltaMap& deposits);

  /// Drops the machine's tau to the floor in every live trail and class
  /// prior: a lost machine's accumulated attraction must not survive the
  /// outage, or colonies keep declining working machines waiting for it.
  void evaporate_machine(cluster::MachineId machine);

  /// Re-seeds a rejoined machine's tau in every live trail and class prior
  /// to the row's mean over the other machines — neutral standing at the
  /// row's current scale, so the machine is explored again without
  /// inheriting its pre-crash rank.
  void reseed_machine(cluster::MachineId machine);

  /// Multiplies one trail entry by `factor` (clamped at the floor) — the
  /// immediate reaction to a failed attempt on the machine, ahead of the
  /// next control tick.  Unknown colonies are ignored.
  void penalize(mr::JobId job, mr::TaskKind kind, cluster::MachineId machine,
                double factor);

  double rho() const { return rho_; }
  double tau_min() const { return tau_min_; }
  std::size_t num_machines() const { return num_machines_; }

  /// Snapshot of one trail (for tests/observability).
  std::vector<double> trail(mr::JobId job, mr::TaskKind kind) const;

  /// The remembered class trail, if any colonies of the class have learned.
  const std::vector<double>* class_prior(const std::string& class_key,
                                         mr::TaskKind kind) const;

  /// Full-state snapshot/restore (the control-plane failover model): the
  /// trails, class bindings and class priors of every colony, restorable
  /// onto a table of the same shape.  Used by E-Ant's master-recovery hook
  /// to rewind the ant trail to the last persisted control tick.
  struct Snapshot {
    std::map<TrailKey, std::vector<double>> trails;
    std::map<TrailKey, std::string> classes;
    std::map<std::pair<std::string, mr::TaskKind>, std::vector<double>> priors;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  /// Recomputes a trail's cached sum and max after a write to its tau.
  static void refresh(Trail& trail);

  /// The live trail of the key, or null (never added, or removed).
  Trail* find(const TrailKey& key);

  std::size_t num_machines_;
  double rho_;
  double tau_init_;
  double tau_min_;
  /// Trails indexed by JobId, map trail first.  A job without a live colony
  /// holds two trails with an empty tau (a live tau has num_machines_
  /// entries), so iterating in index order visits live trails in TrailKey
  /// order.
  std::vector<std::array<Trail, 2>> trails_;
  std::map<TrailKey, std::string> classes_;
  std::map<std::pair<std::string, mr::TaskKind>, std::vector<double>> priors_;
};

}  // namespace eant::core
