// Machine model: hardware description plus runtime CPU-demand tracking and
// exact energy integration.
//
// The power substrate follows the paper's own model family (Sec. IV-B):
// machine power is linear in CPU utilisation, P(u) = P_idle + alpha * u with
// u in [0, 1].  The Machine integrates P(u(t)) dt continuously as tasks come
// and go, giving the "wall power" ground truth that the paper obtained from
// WattsUP meters; a sampling PowerMeter (power_meter.h) reproduces the
// metering path itself.

#pragma once

#include <cstddef>
#include <string>

#include "common/error.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace eant::cluster {

/// Index of a machine within its Cluster.
using MachineId = std::size_t;

/// Passive observer of a machine's power-relevant state (the audit layer's
/// tap for redundant energy integration).  Notified after every change to
/// the hosted CPU demand or the power state, with the simulation time of the
/// change.  Must not mutate the machine.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  virtual void on_machine_state(MachineId id, Seconds now, double demand_cores,
                                bool up) = 0;
};

/// Static hardware description of a machine model (catalog entry).
struct MachineType {
  std::string name;       ///< model name, e.g. "Desktop", "T420", "Atom"
  int cores = 1;          ///< physical core count
  double cpu_factor = 1;  ///< per-core speed relative to the reference core
  double io_mbps = 100;   ///< effective local disk bandwidth per task stream
  double net_mbps = 1000; ///< NIC bandwidth (Gigabit Ethernet in the paper)
  int memory_gb = 8;      ///< descriptive only (Table I)
  int disk_tb = 1;        ///< descriptive only (Table I)
  int map_slots = 4;      ///< Hadoop map slots (paper: 4 per slave)
  int reduce_slots = 2;   ///< Hadoop reduce slots (paper: 2 per slave)
  Watts idle_power = 50;  ///< P_idle: power with zero CPU utilisation
  Watts alpha = 80;       ///< slope: extra power at 100% CPU utilisation

  int total_slots() const { return map_slots + reduce_slots; }

  /// Instantaneous power at utilisation u (clamped to [0,1]).
  Watts power_at(Utilization u) const;

  /// Seconds a task needs on this machine for the given reference-core CPU
  /// seconds and IO megabytes (sequential phases, the dominant-cost model).
  Seconds task_runtime(double cpu_ref_seconds, Megabytes io_mb) const;
};

/// A live machine in the simulation: tracks the aggregate CPU demand of the
/// tasks it hosts and integrates energy exactly across demand changes.
class Machine {
 public:
  Machine(sim::Simulator& sim, MachineId id, MachineType type);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  MachineId id() const { return id_; }
  const MachineType& type() const { return type_; }

  /// Adjusts the aggregate CPU demand (in cores) hosted on this machine;
  /// negative deltas release demand.  The resulting demand must stay >= 0.
  void adjust_demand(double delta_cores);

  /// Current busy cores (sum of task demands, not clamped).
  double demand_cores() const { return demand_cores_; }

  /// Machine-level CPU utilisation in [0, 1]; 0 while powered down.
  Utilization utilization() const;

  /// Powers the machine down (crash) or back up.  While down the machine
  /// draws zero power and its energy/utilisation integrals stop accruing.
  /// Going down requires all task demand to have been released first (the
  /// TaskTracker kills its attempts before pulling the plug).
  void set_up(bool up);

  /// True while the machine is powered on (the default).
  bool is_up() const { return up_; }

  /// Cumulative seconds spent powered down so far.
  Seconds downtime();

  /// Instantaneous wall power at the current utilisation; 0 while down.
  Watts power() const {
    return up_ ? type_.power_at(utilization()) : 0.0;
  }

  /// Exact cumulative energy in joules from t=0 to the current sim time.
  Joules energy();

  /// Integral of utilisation over time (used for average-utilisation
  /// metrics, Fig. 8(b)); exact, like the energy integral.
  double utilization_integral();

  /// True iff the aggregate demand exceeds the core count (tasks would be
  /// time-sliced); schedulers can consult this for contention modelling.
  bool oversubscribed() const { return demand_cores_ > type_.cores; }

  /// Sets the dynamic performance multipliers of a fail-slow (gray) fault:
  /// cpu scales the effective per-core speed, io the effective disk
  /// throughput, both in (0, 1] with 1 = healthy.  Deliberately power-
  /// neutral — a limping machine keeps drawing P(u) for its hosted demand
  /// while every task takes longer, which is exactly the wasted-energy
  /// signature of a gray failure.
  void set_perf_factors(double cpu, double io);

  /// Seconds a task needs on this machine *right now*, with the dynamic
  /// performance multipliers applied on top of the static type speed.
  /// Identical to type().task_runtime() while the machine is healthy.
  Seconds effective_task_runtime(double cpu_ref_seconds,
                                 Megabytes io_mb) const;

  /// Ratio effective / nominal runtime for the given task shape — the
  /// stretch factor the TaskTracker applies to in-flight service times.
  /// Exactly 1.0 while healthy (no floating-point drift on the fault-free
  /// path: healthy factors are the literal 1.0).
  double stretch_for(double cpu_ref_seconds, Megabytes io_mb) const;

  /// Attaches (or, with nullptr, detaches) a state observer.  At most one;
  /// it must outlive the machine or be detached first.
  void set_observer(MachineObserver* observer) { observer_ = observer; }

 private:
  void settle();  // accumulate energy/util integrals up to now

  sim::Simulator& sim_;
  MachineId id_;
  MachineType type_;
  double demand_cores_ = 0.0;
  bool up_ = true;
  double perf_cpu_factor_ = 1.0;
  double perf_io_factor_ = 1.0;
  MachineObserver* observer_ = nullptr;
  Seconds last_settle_ = 0.0;
  Joules energy_ = 0.0;
  double util_integral_ = 0.0;
  Seconds downtime_ = 0.0;
};

}  // namespace eant::cluster
