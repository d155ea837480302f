// Fault injection for the cluster simulation.
//
// A FaultPlan describes *what* goes wrong: scripted machine crash/recover
// events, stochastic machine failures (exponential MTBF) with exponential
// repair times (MTTR), a transient per-attempt task-failure probability,
// scripted and stochastic *network* faults (access-link and rack-trunk
// degradation/failure — a trunk factor of 0 partitions the rack), a
// transient shuffle-fetch failure probability, and scripted and stochastic
// *fail-slow* (gray) faults — CPU slowdown and disk-throughput degradation
// factors, including progressive "rot" ramps, under which a machine keeps
// accepting work but runs it at a fraction of nominal speed — and scripted
// and stochastic *control-plane* faults that crash the cluster masters
// (JobTracker, NameNode) while the data plane keeps running, and scripted
// and stochastic *silent data corruption* — bit rot in stored HDFS replicas
// and garbled shuffle payloads — that damages bytes without failing
// anything at injection time (the damage surfaces only through checksum
// verification at read time, the background scrubber, or never).  The
// FaultInjector turns the plan into simulator events and invokes handlers
// (wired to TaskTracker::crash/restart, Fabric::set_*_factor and
// TaskTracker::set_perf_factors by the exp harness) when a machine or link
// changes state.
//
// The injector lives in the sim layer on purpose: it knows machines, racks
// and links only as indices and reports faults through callbacks, so the
// MapReduce engine owns all recovery semantics.  Every random draw comes
// from dedicated forked RNG streams (one per machine for MTBF/MTTR, one per
// machine for link flaps, one for task failures, one for fetch failures,
// one per machine for slow faults), so a run is exactly reproducible per
// seed and adding fault injection never perturbs the draws of other
// components.
//
// Stochastic failure processes are *restart-anchored*: a machine's next
// crash is always sampled from the instant it (re)entered service, never
// from a schedule drawn before an intervening scripted fault — so
// back-to-back failures can never fire "in the past" relative to the
// recovery that preceded them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace eant::sim {

/// One scripted machine fault transition.
struct FaultEvent {
  enum class Kind { kCrash, kRecover };
  Seconds time = 0.0;
  std::size_t machine = 0;
  Kind kind = Kind::kCrash;
};

/// One scripted network fault transition: sets the capacity factor of a
/// machine's access link (tx + rx together) or a rack's trunk (up + down).
/// Factor 1 restores full capacity, (0, 1) degrades, 0 takes the link down —
/// a down trunk partitions its rack from the rest of the fabric.
struct NetFaultEvent {
  enum class Target { kNodeLink, kRackTrunk };
  Seconds time = 0.0;
  Target target = Target::kNodeLink;
  std::size_t index = 0;  ///< machine id (kNodeLink) or rack id (kRackTrunk)
  double factor = 0.0;
};

/// One scripted control-plane fault transition: crashes or recovers a
/// cluster *master* — the JobTracker or the NameNode — rather than a worker.
/// While a master is down the data plane keeps running (tasks compute,
/// flows drain) but the control functions the master provides are
/// unavailable; the MapReduce engine owns the recovery semantics
/// (checkpoint replay, epoch fencing, re-registration).
struct MasterFaultEvent {
  enum class Target { kJobTracker, kNameNode };
  enum class Kind { kCrash, kRecover };
  Seconds time = 0.0;
  Target target = Target::kJobTracker;
  Kind kind = Kind::kCrash;
};

/// One scripted fail-slow (gray failure) transition: sets a machine's CPU
/// slowdown factor and disk/IO throughput factor.  Both factors multiply
/// the machine's nominal speed: 1 restores full speed, (0, 1) limps —
/// a cpu_factor of 0.5 doubles the compute phase of every task on the
/// machine.  Unlike crashes the machine stays up and keeps accepting work.
struct SlowFaultEvent {
  Seconds time = 0.0;
  std::size_t machine = 0;
  double cpu_factor = 1.0;
  double io_factor = 1.0;
};

/// One scripted silent-corruption event: flips bits in one stored HDFS
/// replica.  `block >= 0` targets that block's replica on `machine`;
/// `block < 0` corrupts a deterministically chosen replica currently stored
/// on `machine` (the handler owns the choice — the injector knows no
/// blocks).  Corruption is *silent*: nothing fails at injection time; the
/// damage is discovered only by a verified read, the background scrubber,
/// or never (a latent corruption).
struct CorruptFaultEvent {
  Seconds time = 0.0;
  std::size_t machine = 0;
  std::int64_t block = -1;
};

/// Declarative description of the faults to inject into a run.
struct FaultPlan {
  /// Scripted transitions (applied in time order; redundant transitions —
  /// crashing a machine that is already down — are ignored).
  std::vector<FaultEvent> events;

  /// Mean time between stochastic failures per machine (exponential);
  /// 0 disables stochastic machine failures.
  Seconds mtbf = 0.0;

  /// Mean time to repair a stochastically failed machine (exponential);
  /// 0 with mtbf > 0 means crashed machines stay down forever.
  Seconds mttr = 0.0;

  /// Probability that any single task attempt dies before completing
  /// (Hadoop's transient task failures: bad disk sector, JVM crash, ...).
  double task_failure_prob = 0.0;

  /// Scripted network fault transitions (link/trunk degradation, failure,
  /// partition, repair).
  std::vector<NetFaultEvent> net_events;

  /// Mean time between stochastic access-link faults per machine
  /// (exponential); 0 disables link flapping.
  Seconds link_mtbf = 0.0;

  /// Mean time to repair a stochastically faulted link (exponential);
  /// 0 with link_mtbf > 0 means faulted links stay degraded forever.
  Seconds link_mttr = 0.0;

  /// Capacity factor a stochastically faulted link drops to while the fault
  /// is active (0 = hard down, (0, 1) = degraded).
  double link_fault_factor = 0.0;

  /// Probability that any single shuffle fetch dies mid-transfer for a
  /// transient reason (connection reset, fetcher thread death, ...) even on
  /// a healthy network.
  double fetch_failure_prob = 0.0;

  /// Scripted fail-slow transitions (performance degradation and recovery).
  std::vector<SlowFaultEvent> slow_events;

  /// Mean time between stochastic fail-slow episodes per machine
  /// (exponential); 0 disables stochastic slowdowns.
  Seconds slow_mtbf = 0.0;

  /// Mean duration of a stochastic fail-slow episode (exponential);
  /// 0 with slow_mtbf > 0 means limping machines never recover.
  Seconds slow_mttr = 0.0;

  /// CPU factor a stochastically limping machine drops to while the episode
  /// is active (must be in (0, 1) when slow_mtbf > 0).
  double slow_cpu_factor = 1.0;

  /// IO throughput factor during a stochastic fail-slow episode.
  double slow_io_factor = 1.0;

  /// Scripted control-plane (master) fault transitions.
  std::vector<MasterFaultEvent> master_events;

  /// Mean time between stochastic JobTracker crashes (exponential);
  /// 0 disables stochastic JobTracker failures.
  Seconds jt_mtbf = 0.0;

  /// Mean time to repair a stochastically crashed JobTracker (exponential);
  /// 0 with jt_mtbf > 0 means a crashed JobTracker stays down forever.
  Seconds jt_mttr = 0.0;

  /// Mean time between stochastic NameNode crashes (exponential).
  Seconds nn_mtbf = 0.0;

  /// Mean time to repair a stochastically crashed NameNode (exponential).
  Seconds nn_mttr = 0.0;

  /// Scripted silent replica corruption.
  std::vector<CorruptFaultEvent> corrupt_events;

  /// Mean time between stochastic silent corruptions per machine
  /// (exponential); 0 disables stochastic bit rot.  Each strike corrupts
  /// one replica on the struck machine (chosen by the handler from a
  /// uniform pick drawn on the machine's corruption stream).
  Seconds corruption_mtbf = 0.0;

  /// Probability that any single completed shuffle fetch delivered a
  /// corrupt payload (detected by the reduce-side checksum on arrival).
  double shuffle_corruption_prob = 0.0;

  /// Probability that a completed map attempt *produced* corrupt output (a
  /// limping machine writing garbage); consulted only when the JobTracker's
  /// end-to-end task-output verification is enabled.
  double task_output_corruption_prob = 0.0;

  /// True when the plan injects network faults (needs a Fabric to act on).
  bool has_net_faults() const {
    return !net_events.empty() || link_mtbf > 0.0;
  }

  /// True when the plan injects fail-slow faults (needs a slow handler).
  bool has_slow_faults() const {
    return !slow_events.empty() || slow_mtbf > 0.0;
  }

  /// True when the plan injects control-plane (master) faults.
  bool has_master_faults() const {
    return !master_events.empty() || jt_mtbf > 0.0 || nn_mtbf > 0.0;
  }

  /// True when the plan injects stored-replica corruption (needs a
  /// corruption handler).
  bool has_corruption_faults() const {
    return !corrupt_events.empty() || corruption_mtbf > 0.0;
  }

  /// True when the plan injects anything at all.
  bool enabled() const {
    return !events.empty() || mtbf > 0.0 || task_failure_prob > 0.0 ||
           has_net_faults() || fetch_failure_prob > 0.0 ||
           has_slow_faults() || has_master_faults() ||
           has_corruption_faults() || shuffle_corruption_prob > 0.0 ||
           task_output_corruption_prob > 0.0;
  }

  /// Scripting helpers.
  FaultPlan& crash_at(std::size_t machine, Seconds t);
  FaultPlan& recover_at(std::size_t machine, Seconds t);
  /// Crash at t and recover `downtime` seconds later.
  FaultPlan& crash_for(std::size_t machine, Seconds t, Seconds downtime);
  /// Take a machine's access link down at t, restore it `duration` later.
  FaultPlan& fail_link_for(std::size_t machine, Seconds t, Seconds duration);
  /// Degrade a machine's access link to `factor` capacity for `duration`.
  FaultPlan& degrade_link_for(std::size_t machine, Seconds t, Seconds duration,
                              double factor);
  /// Take a rack's trunk down at t (partitioning the rack), restore it
  /// `duration` later.
  FaultPlan& partition_rack(std::size_t rack, Seconds t, Seconds duration);
  /// Degrade a rack's trunk to `factor` capacity for `duration`.
  FaultPlan& degrade_trunk_for(std::size_t rack, Seconds t, Seconds duration,
                               double factor);
  /// Slow a machine to `cpu_factor` (and `io_factor`) of nominal speed at t,
  /// restore full speed `duration` seconds later.
  FaultPlan& slow_for(std::size_t machine, Seconds t, Seconds duration,
                      double cpu_factor, double io_factor = 1.0);
  /// Progressive rot: degrade a machine's CPU in `steps` equal-time scripted
  /// steps from full speed down to `final_cpu_factor` over `duration`,
  /// then restore at t + duration (the dying-disk / thermal-throttle ramp).
  FaultPlan& rot(std::size_t machine, Seconds t, Seconds duration,
                 double final_cpu_factor, int steps = 4);
  /// Crash the JobTracker at t and bring it back `downtime` seconds later.
  FaultPlan& crash_jobtracker_for(Seconds t, Seconds downtime);
  /// Crash the NameNode at t and bring it back `downtime` seconds later.
  FaultPlan& crash_namenode_for(Seconds t, Seconds downtime);
  /// Silently corrupt the replica of `block` stored on `machine` at t.
  FaultPlan& corrupt_replica_at(std::size_t machine, std::int64_t block,
                                Seconds t);
  /// Silently corrupt a deterministically chosen replica on `machine` at t
  /// (the handler picks the first replica in its storage order — no RNG).
  FaultPlan& corrupt_machine_at(std::size_t machine, Seconds t);
};

/// Executes a FaultPlan against a Simulator.
class FaultInjector {
 public:
  using MachineHandler = std::function<void(std::size_t machine)>;
  /// Receives applied network fault transitions (wired by the exp harness to
  /// Fabric::set_node_link_factor / set_trunk_factor).
  using NetHandler = std::function<void(NetFaultEvent::Target target,
                                        std::size_t index, double factor)>;
  /// Receives applied fail-slow transitions (wired by the exp harness to
  /// TaskTracker::set_perf_factors).
  using SlowHandler = std::function<void(std::size_t machine,
                                         double cpu_factor, double io_factor)>;
  /// Receives applied control-plane transitions (wired by the exp harness to
  /// JobTracker::crash_master / recover_master).
  using MasterHandler =
      std::function<void(MasterFaultEvent::Target target, bool up)>;
  /// Receives silent-corruption strikes (wired by the exp harness to
  /// JobTracker::inject_corruption).  `block >= 0` names the replica to rot;
  /// `block < 0` means "one replica on `machine`", and `pick` in [0, 1)
  /// selects it from the machine's replica list (the injector knows no
  /// blocks, so the handler owns the mapping).  Scripted machine-level
  /// events pass pick = 0 — no RNG is consumed for scripted strikes.
  using CorruptionHandler = std::function<void(
      std::size_t machine, std::int64_t block, double pick)>;

  /// One applied machine transition (for logs, tests and determinism
  /// checks).
  struct Transition {
    Seconds time = 0.0;
    std::size_t machine = 0;
    bool up = false;  ///< state after the transition
  };

  /// One applied network transition.
  struct NetTransition {
    Seconds time = 0.0;
    NetFaultEvent::Target target = NetFaultEvent::Target::kNodeLink;
    std::size_t index = 0;
    double factor = 1.0;  ///< factor after the transition
  };

  /// One applied fail-slow transition.
  struct SlowTransition {
    Seconds time = 0.0;
    std::size_t machine = 0;
    double cpu_factor = 1.0;  ///< factors after the transition
    double io_factor = 1.0;
  };

  /// One applied control-plane transition.
  struct MasterTransition {
    Seconds time = 0.0;
    MasterFaultEvent::Target target = MasterFaultEvent::Target::kJobTracker;
    bool up = false;  ///< state after the transition
  };

  /// One delivered silent-corruption strike (block as passed to the
  /// handler: -1 when the handler picked the replica).
  struct CorruptTransition {
    Seconds time = 0.0;
    std::size_t machine = 0;
    std::int64_t block = -1;
  };

  FaultInjector(Simulator& sim, FaultPlan plan, Rng rng,
                std::size_t num_machines, std::size_t num_racks = 1);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the crash/recover callbacks.  Must precede start().
  void set_handlers(MachineHandler on_crash, MachineHandler on_recover);

  /// Installs the network fault callback.  Must precede start() when the
  /// plan has network faults.
  void set_net_handler(NetHandler handler);

  /// Installs the fail-slow callback.  Must precede start() when the plan
  /// has fail-slow faults.
  void set_slow_handler(SlowHandler handler);

  /// Installs the control-plane callback.  Must precede start() when the
  /// plan has master faults.
  void set_master_handler(MasterHandler handler);

  /// Installs the silent-corruption callback.  Must precede start() when
  /// the plan has stored-replica corruption faults.
  void set_corruption_handler(CorruptionHandler handler);

  /// Schedules every scripted event and seeds the stochastic failure
  /// processes.  Call exactly once.
  void start();

  /// The injector's view of a machine's state.
  bool is_up(std::size_t machine) const;

  /// The injector's view of a machine's access-link capacity factor.
  double node_link_factor(std::size_t machine) const;

  /// The injector's view of a rack's trunk capacity factor.
  double trunk_factor(std::size_t rack) const;

  /// The injector's view of a machine's CPU / IO performance factors.
  double cpu_factor(std::size_t machine) const;
  double io_factor(std::size_t machine) const;

  /// Transient task-failure draw, consulted once per launched attempt.
  /// Empty: the attempt runs to completion.  Otherwise: the fraction of the
  /// attempt's nominal duration after which it fails.
  std::optional<double> draw_attempt_failure();

  /// Transient fetch-failure draw, consulted once per started shuffle fetch.
  /// Empty: the fetch is not sabotaged.  Otherwise: the fraction of the
  /// fetch's solo duration after which it dies.
  std::optional<double> draw_fetch_failure();

  /// Shuffle-payload corruption draw, consulted once per *completed* shuffle
  /// fetch.  True: the delivered payload fails its checksum.  Consumes no
  /// RNG when shuffle_corruption_prob is 0.
  bool draw_shuffle_corruption();

  /// Task-output corruption draw, consulted once per verified map
  /// completion.  True: the attempt produced garbage despite finishing
  /// "successfully".  Consumes no RNG when task_output_corruption_prob is 0.
  bool draw_task_output_corruption();

  /// Every machine transition actually applied, in simulation order.
  const std::vector<Transition>& log() const { return log_; }

  /// Every fail-slow transition actually applied, in simulation order.
  const std::vector<SlowTransition>& slow_log() const { return slow_log_; }

  /// Every control-plane transition actually applied, in simulation order.
  const std::vector<MasterTransition>& master_log() const {
    return master_log_;
  }

  /// Every silent-corruption strike delivered, in simulation order.
  const std::vector<CorruptTransition>& corrupt_log() const {
    return corrupt_log_;
  }

  /// The injector's view of the masters' state.
  bool jobtracker_up() const { return jobtracker_.up; }
  bool namenode_up() const { return namenode_.up; }

  /// Number of crash transitions applied so far.
  std::size_t crashes() const;

  /// Number of applied network transitions that degraded a link or trunk
  /// (factor < 1).
  std::size_t link_faults() const;

  /// Number of applied fail-slow transitions that degraded a machine
  /// (cpu or io factor < 1).
  std::size_t slow_faults() const;

  /// Number of applied control-plane crash transitions.
  std::size_t master_crashes() const;

  /// Number of silent-corruption strikes delivered so far.
  std::size_t corruptions() const { return corrupt_log_.size(); }

  const FaultPlan& plan() const { return plan_; }

 private:
  /// A fail-stop component (a machine or a master) and its restart-anchored
  /// MTBF/MTTR failure process.  Pending events hold records by reference,
  /// so they are filled once, in the constructor, and never move.
  struct FailStop {
    Rng rng{0};          // MTBF/MTTR stream
    Seconds mtbf = 0.0;  // 0: no stochastic crashes
    Seconds mttr = 0.0;  // 0: a stochastic crash is permanent
    bool up = true;
    // Pending stochastic crash: cancelled when a scripted crash intervenes,
    // re-armed (with a fresh draw) at every recovery.
    EventId pending_crash = 0;
    // Where transitions go: master_log_ and on_master_ for a master, else
    // log_ and on_crash_ / on_recover_ for `machine`.
    std::optional<MasterFaultEvent::Target> master;
    std::size_t machine = 0;
  };

  /// A degradation-episode process over every machine's access link (link
  /// flaps) or CPU/IO speed (fail-slow limps): after an exponential gap the
  /// target degrades unless it already is, and is restored after an
  /// exponential repair time (never when mttr is 0).
  struct EpisodeProcess {
    std::vector<Rng> rng;  // one stream per machine
    Seconds mtbf = 0.0;
    Seconds mttr = 0.0;
    std::function<bool(std::size_t machine)> degraded;
    std::function<void(std::size_t machine, bool degrade)> set;
  };

  void crash(FailStop& c);
  void recover(FailStop& c);
  void arm_crash(FailStop& c);
  void deliver(const FailStop& c);
  void schedule_episode(EpisodeProcess& p, std::size_t machine);
  void apply_net(NetFaultEvent::Target target, std::size_t index,
                 double factor);
  void apply_slow(std::size_t machine, double cpu_factor, double io_factor);
  void apply_corruption(std::size_t machine, std::int64_t block, double pick);
  void schedule_stochastic_corruption(std::size_t machine);

  Simulator& sim_;
  FaultPlan plan_;
  std::vector<FailStop> machines_;
  FailStop jobtracker_;
  FailStop namenode_;
  EpisodeProcess link_flaps_;
  EpisodeProcess limps_;
  Rng task_rng_;                  // transient task-failure stream
  Rng fetch_rng_;                 // transient fetch-failure stream
  std::vector<Rng> corrupt_rng_;  // one stream per machine (bit-rot draws)
  Rng shuffle_corrupt_rng_;       // shuffle-payload corruption stream
  Rng output_corrupt_rng_;        // task-output corruption stream
  std::vector<double> node_link_factor_;
  std::vector<double> trunk_factor_;
  std::vector<double> cpu_factor_;
  std::vector<double> io_factor_;
  MachineHandler on_crash_;
  MachineHandler on_recover_;
  NetHandler on_net_;
  SlowHandler on_slow_;
  MasterHandler on_master_;
  CorruptionHandler on_corrupt_;
  std::vector<Transition> log_;
  std::vector<NetTransition> net_log_;
  std::vector<SlowTransition> slow_log_;
  std::vector<MasterTransition> master_log_;
  std::vector<CorruptTransition> corrupt_log_;
  bool started_ = false;
};

}  // namespace eant::sim
