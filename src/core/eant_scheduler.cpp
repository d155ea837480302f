#include "core/eant_scheduler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "audit/auditor.h"
#include "common/error.h"

namespace eant::core {
namespace {

/// Initial trail value and the MMAS floor that keeps every machine
/// sampleable.
constexpr double kTauInit = 1.0;
constexpr double kTauMin = 0.05;

/// Sec. VI-C convergence definition.
constexpr double kStabilityThreshold = 0.8;

/// Floor of the slot-acceptance probability (see select_job): even the
/// worst-ranked machine keeps exploring occasionally, the acceptance-side
/// analogue of the tau floor.
constexpr double kMinAcceptance = 0.05;

/// Exponent sharpening the slot-acceptance probability.  A machine whose
/// slots turn over faster is offered tasks more often, which counteracts
/// proportional routing; sharpening restores the pheromone ratio's
/// authority over placement.
constexpr double kAcceptanceSharpness = 3.0;

/// Acceptance floor when the sampled job has a node-local pending split on
/// the offering machine: Eq. 7 ranks locality above everything, and a
/// declined local slot usually turns into a remote read elsewhere, so local
/// offers decline only half-heartedly.
constexpr double kLocalAcceptanceFloor = 0.5;

/// Acceptance floor for a rack-local offer on a multi-rack topology —
/// between the node-local floor and kMinAcceptance, because a declined
/// rack-local slot risks a cross-rack read over the oversubscribed uplink.
/// Inert with one flat rack.
constexpr double kRackLocalAcceptanceFloor = 0.25;

/// Ceiling of the auditor's pheromone-bounds check: a trail above it (or
/// non-finite) means a deposit computation exploded.
constexpr double kPheromoneCeiling = 1e12;

}  // namespace

EAntScheduler::EAntScheduler(EnergyModel model, Rng rng, EAntConfig config)
    : model_(std::move(model)),
      rng_(rng),
      config_(config),
      local_boost_(eta_boost(kLocalityEta, config.beta)),
      rack_boost_(eta_boost(kRackLocalityEta, config.beta)) {
  EANT_CHECK(config.control_interval > 0.0,
             "control interval must be positive");
}

void EAntScheduler::attach(mr::JobTracker& job_tracker) {
  EANT_CHECK(jt_ == nullptr, "E-Ant already attached");
  jt_ = &job_tracker;
  const std::size_t machines = jt_->cluster().size();
  EANT_CHECK(model_.num_machines() >= machines,
             "energy model lacks parameters for some machines");
  table_ = std::make_unique<PheromoneTable>(machines, config_.rho, kTauInit,
                                            kTauMin);
  convergence_ = ConvergenceTracker(kStabilityThreshold);
  estimated_per_machine_.assign(machines, 0.0);
  jt_->simulator().schedule_periodic(config_.control_interval, [this] {
    control_tick();
    return true;
  });
}

void EAntScheduler::on_job_submitted(mr::JobId job) {
  table_->add_job(job, jt_->job(job).spec().exchange_key());
}

void EAntScheduler::on_job_finished(mr::JobId job) {
  // Retire the colony's trails.  Its reports from the current (partial)
  // interval stay buffered: deposits for removed trails are ignored by
  // apply(), while the interval counts still feed convergence statistics.
  table_->remove_job(job);
}

void EAntScheduler::on_task_completed(const mr::TaskReport& report) {
  const Joules energy = model_.estimate(report);
  estimated_per_machine_[report.machine] += energy;
  interval_reports_.push_back(EstimatedReport{report, energy});

  auto& counts = interval_counts_[report.spec.job];
  if (counts.empty()) counts.assign(jt_->cluster().size(), 0);
  ++counts[report.machine];
}

void EAntScheduler::on_tracker_lost(cluster::MachineId machine) {
  // The dead machine's learned attraction is void: floor its tau in every
  // colony (and every class prior) so no colony declines live machines
  // waiting for a corpse.  Pending interval reports from the machine are
  // kept — the work *was* done and its energy was real.
  table_->evaporate_machine(machine);
}

void EAntScheduler::on_tracker_rejoined(cluster::MachineId machine) {
  // Neutral re-entry: the machine competes again at its rows' current scale
  // and earns rank back through deposits.
  table_->reseed_machine(machine);
}

void EAntScheduler::on_master_recovered() {
  // The partial interval's buffered reports lived in the dead master's
  // memory; re-depositing them after the failover would double-count task
  // energy across epochs (the auditor checks exactly that on the commit
  // side), so both ablation modes drop the buffers.
  interval_reports_.clear();
  interval_counts_.clear();
  const std::vector<mr::JobId> active = jt_->active_jobs();
  if (config_.pheromone_snapshot_on_master_recovery) {
    // Rewind to the trail state persisted at the last control tick; only
    // the intra-interval learning is lost.
    table_->restore(tick_snapshot_);
    // Colonies that finished between that tick and the crash were
    // resurrected by the restore: retire them again.
    for (const auto& [key, row] : tick_snapshot_.trails) {
      if (std::find(active.begin(), active.end(), key.first) == active.end()) {
        table_->remove_job(key.first);
      }
    }
  } else {
    // Amnesia ablation: the trail died with the master.  Every live colony
    // restarts at tau_init, and the class priors are gone too.
    table_ = std::make_unique<PheromoneTable>(table_->num_machines(),
                                              config_.rho, kTauInit, kTauMin);
  }
  // Colonies submitted after the snapshot (under amnesia, all of them) need
  // fresh trails before the next heartbeat samples them.
  for (mr::JobId job : active) {
    if (!table_->has_job(job)) {
      table_->add_job(job, jt_->job(job).spec().exchange_key());
    }
  }
}

void EAntScheduler::on_task_failed(const mr::TaskSpec& spec,
                                   cluster::MachineId machine) {
  // A failed attempt is negative evidence about the (job, machine) path —
  // apply one evaporation step immediately rather than waiting for the
  // control tick.
  table_->penalize(spec.job, spec.kind, machine, 1.0 - config_.rho);
}

void EAntScheduler::on_fetch_failed(mr::JobId job,
                                    cluster::MachineId source) {
  // The source's map output is unreachable: its path is degraded even
  // though the machine itself heartbeats fine.  Penalize the map trail so
  // new work routes around the bad link until it heals and deposits rebuild
  // the attraction.
  table_->penalize(job, mr::TaskKind::kMap, source, 1.0 - config_.rho);
}

void EAntScheduler::control_tick() {
  // The scheduler runs inside the master process: while the JobTracker is
  // down there is no one to tick.  The interval whose tick lands in an
  // outage is simply lost, like the edit-log entries past the checkpoint.
  if (!jt_->master_up()) return;
  ++intervals_;
  if (!interval_reports_.empty()) {
    DeltaMap deposits =
        compute_deposits(interval_reports_, jt_->cluster().size());
    if (config_.machine_exchange) {
      deposits = machine_level_exchange(deposits, jt_->cluster());
    }
    const auto class_key = [this](mr::JobId j) {
      return jt_->job(j).spec().exchange_key();
    };
    if (config_.job_exchange) {
      deposits = job_level_exchange(deposits, class_key);
    }
    if (config_.negative_feedback) {
      deposits = apply_negative_feedback(deposits, class_key);
    }
    deposits = center_deposits(deposits, kTauInit);
    table_->apply(deposits);
  }

  const Seconds now = jt_->simulator().now();
  for (const auto& [job, counts] : interval_counts_) {
    convergence_.record_interval(job, jt_->job(job).submit_time(), now,
                                 counts);
  }

  interval_reports_.clear();
  interval_counts_.clear();

  if (config_.pheromone_snapshot_on_master_recovery) {
    // Persist the trail alongside this tick (the failover snapshot): a
    // master crash rewinds the table to here, not to scratch.
    tick_snapshot_ = table_->snapshot();
  }

  if (auditor_) {
    auditor_->record(audit::Record::kControlTick, intervals_);
    audit_pheromone_bounds();
  }
}

void EAntScheduler::audit_pheromone_bounds() {
  // MMAS floor + blow-up ceiling over every live trail value: a tau below
  // tau_min means apply()/penalize() skipped the clamp somewhere; a huge or
  // non-finite tau means a deposit computation diverged.  Tiny slack under
  // the floor absorbs the clamp's own rounding.
  const double lo = table_->tau_min() * (1.0 - 1e-12);
  const double hi = kPheromoneCeiling;
  for (mr::JobId job : jt_->active_jobs()) {
    if (!table_->has_job(job)) continue;
    for (mr::TaskKind kind : {mr::TaskKind::kMap, mr::TaskKind::kReduce}) {
      const PheromoneTable::Trail& trail = table_->row(job, kind);
      double sum = 0.0;
      double max = 0.0;
      for (std::size_t m = 0; m < trail.tau.size(); ++m) {
        std::ostringstream context;
        context << "tau(job=" << job << ", " << mr::kind_name(kind)
                << ", machine=" << m << ')';
        auditor_->check_in_range("pheromone-bounds", trail.tau[m], lo, hi,
                                 context.str());
        sum += trail.tau[m];
        max = std::max(max, trail.tau[m]);
      }
      // The cached sum and max must equal a fresh in-order recompute bit for
      // bit: a mismatch means some write to the row skipped its refresh.
      if (trail.sum != sum || trail.max != max) {
        std::ostringstream context;
        context.precision(17);
        context << "trail(job=" << job << ", " << mr::kind_name(kind)
                << "): cached sum " << trail.sum << " / max " << trail.max
                << ", recomputed " << sum << " / " << max;
        auditor_->report_violation("pheromone-cache", audit::Severity::kError,
                                   context.str());
      }
    }
  }
}

void EAntScheduler::compute_boosts(cluster::MachineId machine,
                                   mr::TaskKind kind) {
  // Eq. 7: a job with a node-local pending split on this machine takes the
  // "infinite" eta branch — realised as the eta cap, so after the beta
  // exponent of Eq. 8 it becomes a strong but finite boost (the same cap a
  // real implementation needs to keep the weights representable).  All
  // other jobs carry the fairness eta, which within one call depends only
  // on the job's occupied slots.
  const double s_pool = static_cast<double>(jt_->total_slots());
  const double s_min = fair_share(jt_->total_slots(),
                                  jt_->active_jobs().size());
  ++boost_call_;  // retires the memo's entries from earlier calls
  boosts_.clear();
  for (mr::JobId j : candidates_) {
    const mr::JobState& js = jt_->job(j);
    if (kind == mr::TaskKind::kMap) {
      if (js.has_local_pending_map(machine)) {
        boosts_.push_back(local_boost_);
        continue;
      }
      // Middle tier on multi-rack topologies: a rack-local split avoids the
      // oversubscribed core but still crosses a wire (false on a flat rack).
      if (js.has_rack_local_pending_map(machine)) {
        boosts_.push_back(rack_boost_);
        continue;
      }
    }
    const auto occupied = static_cast<std::size_t>(js.occupied_slots());
    if (occupied >= fairness_boosts_.size()) {
      fairness_boosts_.resize(occupied + 1);
    }
    FairnessBoost& memo = fairness_boosts_[occupied];
    if (memo.call != boost_call_) {
      memo.call = boost_call_;
      memo.boost = eta_boost(
          fairness_eta(s_min, static_cast<double>(occupied), s_pool),
          config_.beta);
    }
    boosts_.push_back(memo.boost);
  }
}

std::optional<mr::JobId> EAntScheduler::select_job(cluster::MachineId machine,
                                                   mr::TaskKind kind) {
  EANT_CHECK(jt_ != nullptr, "scheduler not attached");
  jt_->runnable_jobs(kind, candidates_);
  if (candidates_.empty()) return std::nullopt;
  // No job's locality or occupied slots change while this call samples, so
  // each candidate's eta^beta holds for every draw below.
  compute_boosts(machine, kind);
  // Pull-model realisation of Eq. 3/8's machine dimension: the policy says
  // what fraction of job j's tasks machine m should host, namely
  // tau(j,m)/row_sum.  A greedy pull would ignore that and saturate every
  // slot, so a sampled job accepts the slot with probability proportional
  // to m's normalised pheromone for that job (scaled so the fleet average
  // is 1 — with uniform trails every slot is accepted, i.e. the first
  // interval follows Hadoop's default behaviour, Sec. III-A).  A job that
  // declines frees the slot for the next-sampled job; when every runnable
  // job declines, the slot idles until the next heartbeat (3 s) — this is
  // how E-Ant sheds load from energy-inefficient machines (Fig. 8(b)).
  //
  // Shedding must stay work-conserving: a declined slot only pays off when
  // a better machine can pick the task up immediately — otherwise the
  // whole fleet idles (>1 kW of idle power here) while the task waits, and
  // the makespan stretch burns far more than the per-task delta saves.  So
  // a sampled job may decline machine m only while some machine with a
  // meaningfully higher trail for it has a free slot of this kind; the
  // declined work is then picked up within one heartbeat (3 s).
  // The decline decision races against other assignments: the free slot on
  // the better machine may be gone before its next heartbeat claims the
  // declined work.  At high fleet occupancy those races strand tasks in
  // limbo and inflate completion times, so occupancy raises the acceptance
  // floor — full steering on an idle fleet, Hadoop-default behaviour at
  // saturation.
  const double total_kind_slots = static_cast<double>(
      kind == mr::TaskKind::kMap ? jt_->cluster().total_map_slots()
                                 : jt_->cluster().total_reduce_slots());
  const double occupancy =
      1.0 - static_cast<double>(jt_->total_free_slots(kind)) /
                std::max(total_kind_slots, 1.0);
  while (!candidates_.empty()) {
    const auto choice = sample_job(*table_, rng_, candidates_, boosts_, kind,
                                   machine, weights_);
    EANT_ASSERT(choice.has_value(), "sampler returned nothing for candidates");
    // Brownout: declining slots to steer energy is shed load we cannot
    // afford while saturated — take the sampled job and keep the slot busy.
    if (overload_relaxed_) return choice;
    // A decline is work-conserving in two situations: another runnable job
    // remains to take this very slot (a *trade*: under a deep backlog every
    // slot stays busy either way, but swapping a CPU-heavy task off a
    // steep-slope machine for an IO-heavy one still lowers the fleet's
    // power draw), or a better machine has a free slot to pick the task up
    // within a heartbeat.
    const bool has_trade = candidates_.size() > 1;
    const bool has_better = better_machine_free(*choice, kind, machine);
    if (!has_trade && !has_better) return choice;
    // Acceptance is proportional to this machine's standing against the
    // colony's best-ranked machine.  (Normalising by the row mean instead
    // would let trails floored by negative feedback drag the mean down and
    // make every remaining machine look above-average.)
    const PheromoneTable::Trail& row = table_->row(*choice, kind);
    EANT_ASSERT(row.max > 0.0, "pheromone trail must stay positive");
    const double normalized = row.tau[machine] / row.max;
    double floor = kMinAcceptance;
    if (kind == mr::TaskKind::kMap) {
      if (jt_->job(*choice).has_local_pending_map(machine)) {
        floor = std::max(floor, kLocalAcceptanceFloor);
      } else if (jt_->job(*choice).has_rack_local_pending_map(machine)) {
        floor = std::max(floor, kRackLocalAcceptanceFloor);
      }
    }
    if (!has_trade) {
      // The free-slot decline races other assignments (the slot may be
      // taken before the better machine's next heartbeat); the race gets
      // costlier as the fleet fills, so occupancy raises the floor.
      // Squaring keeps it gentle at the paper's moderate utilisations.
      floor = std::max(floor, occupancy * occupancy);
    }
    const double steered = std::clamp(
        std::pow(normalized, kAcceptanceSharpness), floor, 1.0);
    if (rng_.uniform() <= steered) return choice;
    const auto declined =
        std::find(candidates_.begin(), candidates_.end(), *choice);
    boosts_.erase(boosts_.begin() + (declined - candidates_.begin()));
    candidates_.erase(declined);
  }
  return std::nullopt;
}

bool EAntScheduler::better_machine_free(mr::JobId job, mr::TaskKind kind,
                                        cluster::MachineId machine) const {
  const std::vector<double>& tau = table_->row(job, kind).tau;
  const double own_tau = tau[machine];
  // Only available machines with a free slot of the kind are in the set.
  for (cluster::MachineId m : jt_->free_machines(kind)) {
    if (m != machine && tau[m] > kBetterMachineMargin * own_tau) return true;
  }
  return false;
}

}  // namespace eant::core
