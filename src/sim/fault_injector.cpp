#include "sim/fault_injector.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/fp.h"

namespace eant::sim {

FaultPlan& FaultPlan::crash_at(std::size_t machine, Seconds t) {
  events.push_back(FaultEvent{t, machine, FaultEvent::Kind::kCrash});
  return *this;
}

FaultPlan& FaultPlan::recover_at(std::size_t machine, Seconds t) {
  events.push_back(FaultEvent{t, machine, FaultEvent::Kind::kRecover});
  return *this;
}

FaultPlan& FaultPlan::crash_for(std::size_t machine, Seconds t,
                                Seconds downtime) {
  EANT_CHECK(downtime > 0.0, "downtime must be positive");
  crash_at(machine, t);
  recover_at(machine, t + downtime);
  return *this;
}

FaultPlan& FaultPlan::fail_link_for(std::size_t machine, Seconds t,
                                    Seconds duration) {
  return degrade_link_for(machine, t, duration, 0.0);
}

FaultPlan& FaultPlan::degrade_link_for(std::size_t machine, Seconds t,
                                       Seconds duration, double factor) {
  EANT_CHECK(duration > 0.0, "fault duration must be positive");
  EANT_CHECK(factor >= 0.0 && factor < 1.0,
             "a fault's capacity factor must lie in [0, 1)");
  net_events.push_back(
      NetFaultEvent{t, NetFaultEvent::Target::kNodeLink, machine, factor});
  net_events.push_back(NetFaultEvent{t + duration,
                                     NetFaultEvent::Target::kNodeLink, machine,
                                     1.0});
  return *this;
}

FaultPlan& FaultPlan::partition_rack(std::size_t rack, Seconds t,
                                     Seconds duration) {
  return degrade_trunk_for(rack, t, duration, 0.0);
}

FaultPlan& FaultPlan::degrade_trunk_for(std::size_t rack, Seconds t,
                                        Seconds duration, double factor) {
  EANT_CHECK(duration > 0.0, "fault duration must be positive");
  EANT_CHECK(factor >= 0.0 && factor < 1.0,
             "a fault's capacity factor must lie in [0, 1)");
  net_events.push_back(
      NetFaultEvent{t, NetFaultEvent::Target::kRackTrunk, rack, factor});
  net_events.push_back(NetFaultEvent{t + duration,
                                     NetFaultEvent::Target::kRackTrunk, rack,
                                     1.0});
  return *this;
}

FaultPlan& FaultPlan::slow_for(std::size_t machine, Seconds t,
                               Seconds duration, double cpu_factor,
                               double io_factor) {
  EANT_CHECK(duration > 0.0, "fault duration must be positive");
  EANT_CHECK(cpu_factor > 0.0 && cpu_factor <= 1.0,
             "a slow fault's cpu factor must lie in (0, 1]");
  EANT_CHECK(io_factor > 0.0 && io_factor <= 1.0,
             "a slow fault's io factor must lie in (0, 1]");
  EANT_CHECK(cpu_factor < 1.0 || io_factor < 1.0,
             "a slow fault must degrade at least one factor");
  slow_events.push_back(SlowFaultEvent{t, machine, cpu_factor, io_factor});
  slow_events.push_back(SlowFaultEvent{t + duration, machine, 1.0, 1.0});
  return *this;
}

FaultPlan& FaultPlan::rot(std::size_t machine, Seconds t, Seconds duration,
                          double final_cpu_factor, int steps) {
  EANT_CHECK(duration > 0.0, "fault duration must be positive");
  EANT_CHECK(final_cpu_factor > 0.0 && final_cpu_factor < 1.0,
             "a rot's final cpu factor must lie in (0, 1)");
  EANT_CHECK(steps >= 1, "a rot needs at least one step");
  // Equal-time steps, linearly interpolated factors ending exactly at
  // final_cpu_factor; the machine snaps back to full speed when the rot
  // episode ends (the disk was swapped / the throttle released).
  for (int s = 1; s <= steps; ++s) {
    const double frac = static_cast<double>(s) / steps;
    const double factor = 1.0 + frac * (final_cpu_factor - 1.0);
    slow_events.push_back(SlowFaultEvent{
        t + duration * (s - 1) / steps, machine, factor, 1.0});
  }
  slow_events.push_back(SlowFaultEvent{t + duration, machine, 1.0, 1.0});
  return *this;
}

FaultPlan& FaultPlan::crash_jobtracker_for(Seconds t, Seconds downtime) {
  EANT_CHECK(downtime > 0.0, "downtime must be positive");
  master_events.push_back(MasterFaultEvent{
      t, MasterFaultEvent::Target::kJobTracker, MasterFaultEvent::Kind::kCrash});
  master_events.push_back(MasterFaultEvent{t + downtime,
                                           MasterFaultEvent::Target::kJobTracker,
                                           MasterFaultEvent::Kind::kRecover});
  return *this;
}

FaultPlan& FaultPlan::crash_namenode_for(Seconds t, Seconds downtime) {
  EANT_CHECK(downtime > 0.0, "downtime must be positive");
  master_events.push_back(MasterFaultEvent{
      t, MasterFaultEvent::Target::kNameNode, MasterFaultEvent::Kind::kCrash});
  master_events.push_back(MasterFaultEvent{t + downtime,
                                           MasterFaultEvent::Target::kNameNode,
                                           MasterFaultEvent::Kind::kRecover});
  return *this;
}

FaultPlan& FaultPlan::corrupt_replica_at(std::size_t machine,
                                         std::int64_t block, Seconds t) {
  EANT_CHECK(block >= 0, "a scripted replica corruption needs a block id");
  corrupt_events.push_back(CorruptFaultEvent{t, machine, block});
  return *this;
}

FaultPlan& FaultPlan::corrupt_machine_at(std::size_t machine, Seconds t) {
  corrupt_events.push_back(CorruptFaultEvent{t, machine, -1});
  return *this;
}

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan, Rng rng,
                             std::size_t num_machines, std::size_t num_racks)
    : sim_(sim),
      plan_(std::move(plan)),
      task_rng_(rng.fork(0)),
      fetch_rng_(rng.fork(2 * num_machines + 1)),
      // Corruption streams fork at 3N + 4 .. 4N + 3 (per-machine bit rot),
      // 4N + 4 (shuffle payloads), and 4N + 5 (task output), past every
      // stream the earlier fault eras claimed — Rng::fork is pure, so a plan
      // without corruption consumes exactly the draws it always did.
      shuffle_corrupt_rng_(rng.fork(4 * num_machines + 4)),
      output_corrupt_rng_(rng.fork(4 * num_machines + 5)),
      node_link_factor_(num_machines, 1.0),
      trunk_factor_(num_racks, 1.0),
      cpu_factor_(num_machines, 1.0),
      io_factor_(num_machines, 1.0) {
  EANT_CHECK(num_machines >= 1, "fault injector needs machines");
  EANT_CHECK(num_racks >= 1, "fault injector needs at least one rack");
  EANT_CHECK(plan_.mtbf >= 0.0 && plan_.mttr >= 0.0,
             "MTBF/MTTR must be non-negative");
  EANT_CHECK(plan_.link_mtbf >= 0.0 && plan_.link_mttr >= 0.0,
             "link MTBF/MTTR must be non-negative");
  EANT_CHECK(
      plan_.task_failure_prob >= 0.0 && plan_.task_failure_prob < 1.0,
      "task failure probability must be in [0, 1)");
  EANT_CHECK(
      plan_.fetch_failure_prob >= 0.0 && plan_.fetch_failure_prob < 1.0,
      "fetch failure probability must be in [0, 1)");
  EANT_CHECK(
      plan_.link_fault_factor >= 0.0 && plan_.link_fault_factor < 1.0,
      "link fault factor must be in [0, 1)");
  EANT_CHECK(plan_.slow_mtbf >= 0.0 && plan_.slow_mttr >= 0.0,
             "slow MTBF/MTTR must be non-negative");
  EANT_CHECK(plan_.slow_cpu_factor > 0.0 && plan_.slow_cpu_factor <= 1.0,
             "stochastic slow cpu factor must lie in (0, 1]");
  EANT_CHECK(plan_.slow_io_factor > 0.0 && plan_.slow_io_factor <= 1.0,
             "stochastic slow io factor must lie in (0, 1]");
  EANT_CHECK(plan_.slow_mtbf == 0.0 ||  // lint-ok: float-eq (config sentinel)
                 plan_.slow_cpu_factor < 1.0 || plan_.slow_io_factor < 1.0,
             "stochastic slow faults must degrade at least one factor");
  for (const auto& e : plan_.events) {
    EANT_CHECK(e.machine < num_machines, "fault plan names unknown machine");
    EANT_CHECK(e.time >= 0.0, "fault plan event in the past");
  }
  for (const auto& e : plan_.net_events) {
    if (e.target == NetFaultEvent::Target::kNodeLink) {
      EANT_CHECK(e.index < num_machines,
                 "net fault plan names unknown machine");
    } else {
      EANT_CHECK(e.index < num_racks, "net fault plan names unknown rack");
    }
    EANT_CHECK(e.time >= 0.0, "net fault plan event in the past");
    EANT_CHECK(e.factor >= 0.0 && e.factor <= 1.0,
               "net fault factor must lie in [0, 1]");
  }
  for (const auto& e : plan_.slow_events) {
    EANT_CHECK(e.machine < num_machines,
               "slow fault plan names unknown machine");
    EANT_CHECK(e.time >= 0.0, "slow fault plan event in the past");
    EANT_CHECK(e.cpu_factor > 0.0 && e.cpu_factor <= 1.0,
               "slow fault cpu factor must lie in (0, 1]");
    EANT_CHECK(e.io_factor > 0.0 && e.io_factor <= 1.0,
               "slow fault io factor must lie in (0, 1]");
  }
  EANT_CHECK(plan_.jt_mtbf >= 0.0 && plan_.jt_mttr >= 0.0,
             "JobTracker MTBF/MTTR must be non-negative");
  EANT_CHECK(plan_.nn_mtbf >= 0.0 && plan_.nn_mttr >= 0.0,
             "NameNode MTBF/MTTR must be non-negative");
  for (const auto& e : plan_.master_events) {
    EANT_CHECK(e.time >= 0.0, "master fault plan event in the past");
  }
  EANT_CHECK(plan_.corruption_mtbf >= 0.0,
             "corruption MTBF must be non-negative");
  EANT_CHECK(plan_.shuffle_corruption_prob >= 0.0 &&
                 plan_.shuffle_corruption_prob < 1.0,
             "shuffle corruption probability must be in [0, 1)");
  EANT_CHECK(plan_.task_output_corruption_prob >= 0.0 &&
                 plan_.task_output_corruption_prob < 1.0,
             "task output corruption probability must be in [0, 1)");
  for (const auto& e : plan_.corrupt_events) {
    EANT_CHECK(e.machine < num_machines,
               "corruption fault plan names unknown machine");
    EANT_CHECK(e.time >= 0.0, "corruption fault plan event in the past");
  }
  // Fail-stop streams: machine m forks at m + 1; the masters at 3N + 2
  // (JobTracker) and 3N + 3 (NameNode), past every stream the worker-fault
  // eras claimed (task = 0, machines = 1..N, links = N+1..2N, fetch = 2N+1,
  // slow = 2N+2..3N+1) — Rng::fork is pure, so a plan without master faults
  // consumes exactly the draws it always did.
  machines_.resize(num_machines);
  for (std::size_t m = 0; m < num_machines; ++m) {
    FailStop& c = machines_[m];
    c.rng = rng.fork(m + 1);
    c.mtbf = plan_.mtbf;
    c.mttr = plan_.mttr;
    c.machine = m;
  }
  jobtracker_.rng = rng.fork(3 * num_machines + 2);
  jobtracker_.mtbf = plan_.jt_mtbf;
  jobtracker_.mttr = plan_.jt_mttr;
  jobtracker_.master = MasterFaultEvent::Target::kJobTracker;
  namenode_.rng = rng.fork(3 * num_machines + 3);
  namenode_.mtbf = plan_.nn_mtbf;
  namenode_.mttr = plan_.nn_mttr;
  namenode_.master = MasterFaultEvent::Target::kNameNode;

  link_flaps_.mtbf = plan_.link_mtbf;
  link_flaps_.mttr = plan_.link_mttr;
  link_flaps_.degraded = [this](std::size_t m) {
    return node_link_factor_[m] < 1.0;
  };
  link_flaps_.set = [this](std::size_t m, bool degrade) {
    apply_net(NetFaultEvent::Target::kNodeLink, m,
              degrade ? plan_.link_fault_factor : 1.0);
  };
  limps_.mtbf = plan_.slow_mtbf;
  limps_.mttr = plan_.slow_mttr;
  limps_.degraded = [this](std::size_t m) {
    return cpu_factor_[m] < 1.0 || io_factor_[m] < 1.0;
  };
  limps_.set = [this](std::size_t m, bool degrade) {
    apply_slow(m, degrade ? plan_.slow_cpu_factor : 1.0,
               degrade ? plan_.slow_io_factor : 1.0);
  };
  // Link-flap streams fork at N + 1 .. 2N, slow-fault streams at
  // 2N + 2 .. 3N + 1 and bit-rot streams at 3N + 4 .. 4N + 3.
  for (std::size_t m = 0; m < num_machines; ++m) {
    link_flaps_.rng.push_back(rng.fork(num_machines + 1 + m));
    limps_.rng.push_back(rng.fork(2 * num_machines + 2 + m));
    corrupt_rng_.push_back(rng.fork(3 * num_machines + 4 + m));
  }
}

void FaultInjector::set_handlers(MachineHandler on_crash,
                                 MachineHandler on_recover) {
  EANT_CHECK(static_cast<bool>(on_crash) && static_cast<bool>(on_recover),
             "both fault handlers must be set");
  on_crash_ = std::move(on_crash);
  on_recover_ = std::move(on_recover);
}

void FaultInjector::set_net_handler(NetHandler handler) {
  EANT_CHECK(static_cast<bool>(handler), "net handler must be callable");
  on_net_ = std::move(handler);
}

void FaultInjector::set_slow_handler(SlowHandler handler) {
  EANT_CHECK(static_cast<bool>(handler), "slow handler must be callable");
  on_slow_ = std::move(handler);
}

void FaultInjector::set_master_handler(MasterHandler handler) {
  EANT_CHECK(static_cast<bool>(handler), "master handler must be callable");
  on_master_ = std::move(handler);
}

void FaultInjector::set_corruption_handler(CorruptionHandler handler) {
  EANT_CHECK(static_cast<bool>(handler),
             "corruption handler must be callable");
  on_corrupt_ = std::move(handler);
}

void FaultInjector::start() {
  EANT_CHECK(!started_, "fault injector already started");
  EANT_CHECK(static_cast<bool>(on_crash_),
             "set_handlers() must precede start()");
  EANT_CHECK(!plan_.has_net_faults() || static_cast<bool>(on_net_),
             "set_net_handler() must precede start() with network faults");
  EANT_CHECK(!plan_.has_slow_faults() || static_cast<bool>(on_slow_),
             "set_slow_handler() must precede start() with fail-slow faults");
  EANT_CHECK(!plan_.has_master_faults() || static_cast<bool>(on_master_),
             "set_master_handler() must precede start() with master faults");
  EANT_CHECK(
      !plan_.has_corruption_faults() || static_cast<bool>(on_corrupt_),
      "set_corruption_handler() must precede start() with corruption faults");
  started_ = true;
  for (const auto& e : plan_.events) {
    FailStop& c = machines_[e.machine];
    if (e.kind == FaultEvent::Kind::kCrash) {
      sim_.schedule_at(e.time, [this, &c] { crash(c); });
    } else {
      sim_.schedule_at(e.time, [this, &c] { recover(c); });
    }
  }
  for (const auto& e : plan_.net_events) {
    sim_.schedule_at(e.time, [this, e] {
      apply_net(e.target, e.index, e.factor);
    });
  }
  if (plan_.mtbf > 0.0) {
    for (FailStop& c : machines_) arm_crash(c);
  }
  if (link_flaps_.mtbf > 0.0) {
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      schedule_episode(link_flaps_, m);
    }
  }
  for (const auto& e : plan_.slow_events) {
    sim_.schedule_at(e.time, [this, e] {
      apply_slow(e.machine, e.cpu_factor, e.io_factor);
    });
  }
  if (limps_.mtbf > 0.0) {
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      schedule_episode(limps_, m);
    }
  }
  for (const auto& e : plan_.master_events) {
    FailStop& c = e.target == MasterFaultEvent::Target::kJobTracker
                      ? jobtracker_
                      : namenode_;
    if (e.kind == MasterFaultEvent::Kind::kCrash) {
      sim_.schedule_at(e.time, [this, &c] { crash(c); });
    } else {
      sim_.schedule_at(e.time, [this, &c] { recover(c); });
    }
  }
  if (jobtracker_.mtbf > 0.0) arm_crash(jobtracker_);
  if (namenode_.mtbf > 0.0) arm_crash(namenode_);
  for (const auto& e : plan_.corrupt_events) {
    // Scripted strikes consume no RNG: machine-level events pass pick = 0
    // (the handler takes the first replica in its deterministic order).
    sim_.schedule_at(e.time, [this, e] {
      apply_corruption(e.machine, e.block, 0.0);
    });
  }
  if (plan_.corruption_mtbf > 0.0) {
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      schedule_stochastic_corruption(m);
    }
  }
}

bool FaultInjector::is_up(std::size_t machine) const {
  EANT_CHECK(machine < machines_.size(), "machine index out of range");
  return machines_[machine].up;
}

double FaultInjector::node_link_factor(std::size_t machine) const {
  EANT_CHECK(machine < node_link_factor_.size(),
             "machine index out of range");
  return node_link_factor_[machine];
}

double FaultInjector::trunk_factor(std::size_t rack) const {
  EANT_CHECK(rack < trunk_factor_.size(), "rack index out of range");
  return trunk_factor_[rack];
}

double FaultInjector::cpu_factor(std::size_t machine) const {
  EANT_CHECK(machine < cpu_factor_.size(), "machine index out of range");
  return cpu_factor_[machine];
}

double FaultInjector::io_factor(std::size_t machine) const {
  EANT_CHECK(machine < io_factor_.size(), "machine index out of range");
  return io_factor_[machine];
}

std::optional<double> FaultInjector::draw_attempt_failure() {
  if (plan_.task_failure_prob <= 0.0) return std::nullopt;
  if (!task_rng_.bernoulli(plan_.task_failure_prob)) return std::nullopt;
  // Failures strike part-way through the attempt: never at the very start
  // (zero wasted work would be invisible) nor at the very end (that would be
  // a completed task whose report got lost, a different failure mode).
  return task_rng_.uniform(0.05, 0.95);
}

std::optional<double> FaultInjector::draw_fetch_failure() {
  if (plan_.fetch_failure_prob <= 0.0) return std::nullopt;
  if (!fetch_rng_.bernoulli(plan_.fetch_failure_prob)) return std::nullopt;
  return fetch_rng_.uniform(0.05, 0.95);
}

bool FaultInjector::draw_shuffle_corruption() {
  if (plan_.shuffle_corruption_prob <= 0.0) return false;
  return shuffle_corrupt_rng_.bernoulli(plan_.shuffle_corruption_prob);
}

bool FaultInjector::draw_task_output_corruption() {
  if (plan_.task_output_corruption_prob <= 0.0) return false;
  return output_corrupt_rng_.bernoulli(plan_.task_output_corruption_prob);
}

std::size_t FaultInjector::crashes() const {
  return static_cast<std::size_t>(
      std::count_if(log_.begin(), log_.end(),
                    [](const Transition& t) { return !t.up; }));
}

std::size_t FaultInjector::link_faults() const {
  return static_cast<std::size_t>(
      std::count_if(net_log_.begin(), net_log_.end(),
                    [](const NetTransition& t) { return t.factor < 1.0; }));
}

std::size_t FaultInjector::master_crashes() const {
  return static_cast<std::size_t>(
      std::count_if(master_log_.begin(), master_log_.end(),
                    [](const MasterTransition& t) { return !t.up; }));
}

std::size_t FaultInjector::slow_faults() const {
  return static_cast<std::size_t>(std::count_if(
      slow_log_.begin(), slow_log_.end(), [](const SlowTransition& t) {
        return t.cpu_factor < 1.0 || t.io_factor < 1.0;
      }));
}

void FaultInjector::crash(FailStop& c) {
  if (!c.up) return;  // scripted/stochastic overlap: already down
  // A scripted crash preempts any pending stochastic one: the failure
  // process re-arms with a fresh draw at the next recovery, so stale draws
  // can never fire against a component that already failed and restarted.
  sim_.cancel(c.pending_crash);
  c.pending_crash = 0;
  c.up = false;
  deliver(c);
}

void FaultInjector::recover(FailStop& c) {
  if (c.up) return;  // already recovered by another path
  c.up = true;
  deliver(c);
  // Restart-anchored resampling: the component just (re)entered service, so
  // its next stochastic failure is exponential from *now* — regardless of
  // whether the recovery was scripted or stochastic.
  if (c.mtbf > 0.0) arm_crash(c);
}

void FaultInjector::arm_crash(FailStop& c) {
  const Seconds dt = c.rng.exponential(1.0 / c.mtbf);
  c.pending_crash = sim_.schedule_after(dt, [this, &c] {
    c.pending_crash = 0;
    if (!c.up) return;  // lost a race with a scripted crash
    crash(c);
    if (c.mttr > 0.0) {
      const Seconds repair = c.rng.exponential(1.0 / c.mttr);
      sim_.schedule_after(repair, [this, &c] { recover(c); });
    }
    // mttr == 0: the component stays down; its failure process ends.
  });
}

void FaultInjector::deliver(const FailStop& c) {
  if (c.master) {
    master_log_.push_back(MasterTransition{sim_.now(), *c.master, c.up});
    on_master_(*c.master, c.up);
  } else {
    log_.push_back(Transition{sim_.now(), c.machine, c.up});
    (c.up ? on_recover_ : on_crash_)(c.machine);
  }
}

void FaultInjector::schedule_episode(EpisodeProcess& p, std::size_t machine) {
  const Seconds gap = p.rng[machine].exponential(1.0 / p.mtbf);
  sim_.schedule_after(gap, [this, &p, machine] {
    if (p.degraded(machine)) {
      // Already degraded (scripted overlap): skip this episode and resample
      // from now, mirroring the restart-anchored fail-stop semantics.
      schedule_episode(p, machine);
      return;
    }
    p.set(machine, true);
    if (p.mttr > 0.0) {
      const Seconds repair = p.rng[machine].exponential(1.0 / p.mttr);
      sim_.schedule_after(repair, [this, &p, machine] {
        p.set(machine, false);
        schedule_episode(p, machine);
      });
    }
    // mttr == 0: the target stays degraded; its process ends.
  });
}

void FaultInjector::apply_corruption(std::size_t machine, std::int64_t block,
                                     double pick) {
  corrupt_log_.push_back(CorruptTransition{sim_.now(), machine, block});
  on_corrupt_(machine, block, pick);
}

void FaultInjector::schedule_stochastic_corruption(std::size_t machine) {
  // Bit rot strikes a machine's disks on an exponential clock.  Unlike the
  // crash/slow processes it is *not* gated on the machine being up: rot
  // damages platters whether or not the node is serving, and the handler
  // no-ops harmlessly when the machine holds no replicas.  The replica pick
  // is drawn on the same per-machine stream, so the process stays
  // reproducible per seed no matter what other fault families do.
  const Seconds dt =
      corrupt_rng_[machine].exponential(1.0 / plan_.corruption_mtbf);
  const double pick = corrupt_rng_[machine].uniform(0.0, 1.0);
  sim_.schedule_after(dt, [this, machine, pick] {
    apply_corruption(machine, -1, pick);
    schedule_stochastic_corruption(machine);
  });
}

void FaultInjector::apply_net(NetFaultEvent::Target target, std::size_t index,
                              double factor) {
  double& state = target == NetFaultEvent::Target::kNodeLink
                      ? node_link_factor_[index]
                      : trunk_factor_[index];
  if (approx_equal(state, factor)) return;  // redundant transition
  state = factor;
  net_log_.push_back(NetTransition{sim_.now(), target, index, factor});
  on_net_(target, index, factor);
}

void FaultInjector::apply_slow(std::size_t machine, double cpu_factor,
                               double io_factor) {
  if (approx_equal(cpu_factor_[machine], cpu_factor) &&
      approx_equal(io_factor_[machine], io_factor)) {
    return;  // redundant transition
  }
  cpu_factor_[machine] = cpu_factor;
  io_factor_[machine] = io_factor;
  slow_log_.push_back(
      SlowTransition{sim_.now(), machine, cpu_factor, io_factor});
  on_slow_(machine, cpu_factor, io_factor);
}

}  // namespace eant::sim
