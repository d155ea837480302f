// E-Ant: the paper's heterogeneity-aware, energy-minimising task assigner
// (Sec. III & IV), implemented as a pluggable Scheduler.
//
// Per control interval (default 5 minutes, Sec. V-B):
//   1. the task analyzer estimates the energy of every task completed in the
//      interval from its TaskTracker utilisation samples (Eq. 2);
//   2. deposits are computed per colony (Eq. 5), smoothed by the
//      machine-level and job-level exchange strategies (Sec. IV-D), and
//      cross-colony negative feedback is applied (Eq. 6);
//   3. the pheromone table evaporates and absorbs the deposits (Eq. 4).
// Between ticks, every free slot offered by a heartbeat is filled by
// sampling a job with probability proportional to
// tau(j,kind,m)/row_sum * eta(j)^beta (Eq. 8), with absolute priority for
// jobs holding node-local data (Eq. 7, when beta > 0).

#pragma once

#include <map>
#include <vector>

#include "common/rng.h"
#include "core/aco.h"
#include "core/convergence.h"
#include "core/energy_model.h"
#include "core/exchange.h"
#include "core/heuristic.h"
#include "core/pheromone.h"
#include "mapreduce/job_tracker.h"
#include "mapreduce/scheduler.h"

namespace eant::core {

/// E-Ant tunables (defaults are the paper's choices).
struct EAntConfig {
  Seconds control_interval = 300.0;  ///< 5 minutes (Sec. V-B)
  double rho = 0.5;                  ///< evaporation (the worked example's value)
  double beta = 0.1;                 ///< locality/fairness weight (Fig. 12(a) knee)
  bool machine_exchange = true;      ///< Sec. IV-D machine-level strategy
  bool job_exchange = true;          ///< Sec. IV-D job-level strategy
  bool negative_feedback = true;     ///< Eq. 6 cross-colony update

  /// Master-failover ablation (does the ant trail survive amnesia?): when
  /// true (default), E-Ant snapshots its pheromone table at every control
  /// tick — modeling the trail being persisted alongside the JobTracker's
  /// edit-log — and a master recovery restores the last tick's snapshot,
  /// losing only the intra-interval learning.  When false the trail dies
  /// with the master: recovery reseeds every live colony at tau_init and
  /// the fleet relearns its ranking from scratch.
  bool pheromone_snapshot_on_master_recovery = true;
};

/// Realisation of Eq. 7's "infinite" eta for data-local candidates: the cap
/// at which the heuristic saturates (1000^beta ~= 2 at the paper's beta=0.1).
constexpr double kLocalityEta = 1e3;

/// Intermediate eta tier for rack-local candidates on a multi-rack topology
/// (the paper's testbed was one flat rack, so Eq. 7 had no middle branch):
/// the geometric mean of the local boost and no boost, i.e. sqrt(kLocalityEta).
constexpr double kRackLocalityEta = 31.6227766016838;

/// A machine only counts as a "better" placement (justifying a declined
/// slot) when its trail exceeds the offering machine's by this margin.
constexpr double kBetterMachineMargin = 1.02;

/// The adaptive task assigner.
class EAntScheduler final : public mr::Scheduler {
 public:
  EAntScheduler(EnergyModel model, Rng rng, EAntConfig config = {});

  void attach(mr::JobTracker& job_tracker) override;
  void on_job_submitted(mr::JobId job) override;
  void on_job_finished(mr::JobId job) override;
  void on_task_completed(const mr::TaskReport& report) override;
  void on_tracker_lost(cluster::MachineId machine) override;
  void on_tracker_rejoined(cluster::MachineId machine) override;
  void on_task_failed(const mr::TaskSpec& spec,
                      cluster::MachineId machine) override;
  void on_master_recovered() override;
  void on_fetch_failed(mr::JobId job, cluster::MachineId source) override;

  /// Brownout: under Saturated/Critical overload the decline loop is
  /// suspended — energy steering by shedding slots is a luxury when the
  /// backlog is compounding, so select_job accepts the sampled choice
  /// outright (Hadoop-default behaviour, the paper's saturation limit).
  /// Only fired when admission is enabled, so the skipped acceptance draw
  /// cannot perturb a default run's RNG stream.
  void on_overload_state(mr::OverloadState state) override {
    overload_relaxed_ = state >= mr::OverloadState::kSaturated;
  }

  std::optional<mr::JobId> select_job(cluster::MachineId machine,
                                      mr::TaskKind kind) override;
  std::string name() const override { return "E-Ant"; }

  // --- observability -----------------------------------------------------------

  const PheromoneTable& pheromone() const { return *table_; }
  const ConvergenceTracker& convergence() const { return convergence_; }
  const EAntConfig& config() const { return config_; }
  std::size_t intervals() const { return intervals_; }

  /// Cumulative Eq. 2 energy estimates per machine (the task analyzer's view
  /// of where energy went).
  const std::vector<Joules>& estimated_energy_per_machine() const {
    return estimated_per_machine_;
  }

  /// Attaches (or, with nullptr, detaches) the invariant auditor: after
  /// every control tick it re-checks the pheromone bounds (tau >= tau_min,
  /// finite, below the blow-up ceiling) across all live trails.
  void set_auditor(audit::InvariantAuditor* auditor) { auditor_ = auditor; }

 private:
  void control_tick();
  void audit_pheromone_bounds();
  /// Fills boosts_ with Eq. 8's eta^beta for each of candidates_.
  void compute_boosts(cluster::MachineId machine, mr::TaskKind kind);
  bool better_machine_free(mr::JobId job, mr::TaskKind kind,
                           cluster::MachineId machine) const;

  EnergyModel model_;
  Rng rng_;
  EAntConfig config_;

  mr::JobTracker* jt_ = nullptr;
  audit::InvariantAuditor* auditor_ = nullptr;
  /// select_job's runnable jobs, sampled from and erased in place, their
  /// eta^beta factors at the same positions, and sample_job's weights;
  /// kept so a slot offer allocates no vector.
  std::vector<mr::JobId> candidates_;
  std::vector<double> boosts_;
  std::vector<double> weights_;
  /// eta^beta of Eq. 7's two locality branches (constants).
  double local_boost_ = 1.0;
  double rack_boost_ = 1.0;
  /// Eq. 7's fairness factor per occupied-slot count, memoised within one
  /// select_job call (S_min moves with the active jobs between calls): an
  /// entry is valid while its `call` equals boost_call_.
  struct FairnessBoost {
    std::uint64_t call = 0;
    double boost = 0.0;
  };
  std::vector<FairnessBoost> fairness_boosts_;
  std::uint64_t boost_call_ = 0;
  std::unique_ptr<PheromoneTable> table_;  // sized at attach time
  ConvergenceTracker convergence_;

  std::vector<EstimatedReport> interval_reports_;
  std::map<mr::JobId, std::vector<std::size_t>> interval_counts_;
  std::vector<Joules> estimated_per_machine_;
  std::size_t intervals_ = 0;
  bool overload_relaxed_ = false;
  /// Trail state persisted at the last control tick (the failover snapshot).
  PheromoneTable::Snapshot tick_snapshot_;
};

}  // namespace eant::core
