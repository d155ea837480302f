// Fault-injection & fault-tolerance suite: FaultPlan/FaultInjector
// mechanics, machine power-down accounting, TaskTracker crash/restart, the
// JobTracker's Hadoop-style recovery protocol (tracker expiry, re-queueing,
// attempt budgets, blacklisting) and E-Ant's re-convergence after node loss.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "audit/digest.h"
#include "cluster/catalog.h"
#include "cluster/machine.h"
#include "common/error.h"
#include "core/eant_scheduler.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "mapreduce/job_tracker.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/job_spec.h"

namespace eant {
namespace {

using cluster::MachineId;
using mr::TaskKind;

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, HelpersBuildScriptedEvents) {
  sim::FaultPlan plan;
  plan.crash_for(2, 100.0, 50.0).crash_at(0, 30.0).recover_at(0, 40.0);
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].machine, 2u);
  EXPECT_EQ(plan.events[0].kind, sim::FaultEvent::Kind::kCrash);
  EXPECT_DOUBLE_EQ(plan.events[0].time, 100.0);
  EXPECT_EQ(plan.events[1].kind, sim::FaultEvent::Kind::kRecover);
  EXPECT_DOUBLE_EQ(plan.events[1].time, 150.0);
  EXPECT_EQ(plan.events[2].machine, 0u);
  EXPECT_EQ(plan.events[3].machine, 0u);
}

TEST(FaultPlan, StochasticAndTransientKnobsEnable) {
  sim::FaultPlan mtbf_only;
  mtbf_only.mtbf = 1000.0;
  EXPECT_TRUE(mtbf_only.enabled());
  sim::FaultPlan task_only;
  task_only.task_failure_prob = 0.01;
  EXPECT_TRUE(task_only.enabled());
}

// --- FaultInjector -----------------------------------------------------------

// Drains a simulator whose queue never empties (stochastic fault processes
// reschedule forever) up to a time horizon.
void run_until(sim::Simulator& sim, Seconds horizon) {
  while (sim.now() < horizon) {
    if (!sim.step()) break;
  }
}

TEST(FaultInjector, ScriptedTransitionsFireInOrder) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.crash_for(1, 10.0, 5.0).crash_at(0, 12.0);
  sim::FaultInjector inj(sim, plan, Rng(7), 2);
  std::vector<std::size_t> crashed, recovered;
  inj.set_handlers([&](std::size_t m) { crashed.push_back(m); },
                   [&](std::size_t m) { recovered.push_back(m); });
  inj.start();
  EXPECT_TRUE(inj.is_up(0));
  EXPECT_TRUE(inj.is_up(1));
  run_until(sim, 100.0);

  ASSERT_EQ(crashed, (std::vector<std::size_t>{1, 0}));
  ASSERT_EQ(recovered, (std::vector<std::size_t>{1}));
  EXPECT_FALSE(inj.is_up(0));  // never recovered
  EXPECT_TRUE(inj.is_up(1));
  EXPECT_EQ(inj.crashes(), 2u);
  ASSERT_EQ(inj.log().size(), 3u);
  EXPECT_DOUBLE_EQ(inj.log()[0].time, 10.0);
  EXPECT_FALSE(inj.log()[0].up);
  EXPECT_DOUBLE_EQ(inj.log()[1].time, 12.0);
  EXPECT_DOUBLE_EQ(inj.log()[2].time, 15.0);
  EXPECT_TRUE(inj.log()[2].up);
}

TEST(FaultInjector, RedundantScriptedTransitionsAreIgnored) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.crash_at(0, 10.0).crash_at(0, 11.0).recover_at(0, 20.0).recover_at(0,
                                                                          21.0);
  sim::FaultInjector inj(sim, plan, Rng(7), 1);
  int crashes = 0, recoveries = 0;
  inj.set_handlers([&](std::size_t) { ++crashes; },
                   [&](std::size_t) { ++recoveries; });
  inj.start();
  run_until(sim, 100.0);
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(recoveries, 1);
  EXPECT_EQ(inj.log().size(), 2u);
}

TEST(FaultInjector, StochasticFailuresDeterministicPerSeed) {
  auto collect = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultPlan plan;
    plan.mtbf = 400.0;
    plan.mttr = 60.0;
    sim::FaultInjector inj(sim, plan, Rng(seed), 4);
    inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
    inj.start();
    run_until(sim, 5000.0);
    return inj.log();
  };

  const auto a = collect(42);
  const auto b = collect(42);
  const auto c = collect(43);

  ASSERT_FALSE(a.empty()) << "mtbf=400 over 5000 s must produce failures";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_EQ(a[i].up, b[i].up);
  }
  // A different seed draws different crash times.
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().time, c.front().time);
}

TEST(FaultInjector, TransientDrawsAreFractionsInUnitInterval) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.task_failure_prob = 0.5;
  sim::FaultInjector inj(sim, plan, Rng(1), 1);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto f = inj.draw_attempt_failure();
    if (f) {
      ++failures;
      EXPECT_GT(*f, 0.0);
      EXPECT_LT(*f, 1.0);
    }
  }
  // ~Binomial(1000, 0.5); 400..600 is > 6 sigma.
  EXPECT_GT(failures, 400);
  EXPECT_LT(failures, 600);
}

// --- Machine power-down ------------------------------------------------------

TEST(Machine, PowersDownToZeroAndAccruesDowntime) {
  sim::Simulator sim;
  cluster::Machine m(sim, 0, cluster::catalog::desktop());
  const Watts idle = m.type().idle_power;
  EXPECT_GT(m.power(), 0.0);

  sim.schedule_at(100.0, [] {});
  sim.step();
  const Joules before_crash = m.energy();
  EXPECT_NEAR(before_crash, idle * 100.0, 1e-6);

  m.set_up(false);
  EXPECT_FALSE(m.is_up());
  EXPECT_DOUBLE_EQ(m.power(), 0.0);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);

  sim.schedule_at(160.0, [] {});
  sim.step();
  // No energy accrues while down; downtime does.
  EXPECT_NEAR(m.energy(), before_crash, 1e-9);
  EXPECT_NEAR(m.downtime(), 60.0, 1e-9);

  m.set_up(true);
  sim.schedule_at(200.0, [] {});
  sim.step();
  EXPECT_NEAR(m.energy(), before_crash + idle * 40.0, 1e-6);
  EXPECT_NEAR(m.downtime(), 60.0, 1e-9);
}

// --- end-to-end recovery through the exp harness -----------------------------

exp::RunConfig faulted_config(Seconds expiry_window = 30.0) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.tracker_expiry_window = expiry_window;
  return cfg;
}

std::vector<workload::JobSpec> small_workload() {
  // Enough maps that a mid-run crash always orphans work, small enough that
  // the suite stays fast.
  auto jobs = exp::job_batch(workload::AppKind::kWordcount, 64.0 * 24, 2, 3);
  jobs[1].submit_time = 40.0;
  jobs[2].submit_time = 80.0;
  return jobs;
}

TEST(FaultRecovery, EAntCompletesAllJobsThroughMidRunCrash) {
  exp::RunConfig cfg = faulted_config();
  // Down long past the expiry window: the loss must be detected and the
  // orphaned work re-executed while the machine is still dark.
  cfg.faults.crash_for(0, 60.0, 400.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(small_workload());
  run.execute();

  auto& jt = run.job_tracker();
  EXPECT_EQ(jt.jobs_completed(), 3u);
  EXPECT_EQ(jt.jobs_failed(), 0u);
  for (mr::JobId id = 0; id < jt.num_jobs(); ++id) {
    EXPECT_TRUE(jt.job(id).complete());
  }
  // The crash orphaned running attempts (and usually finished map outputs).
  EXPECT_GT(jt.counters().killed_attempts, 0u);
  EXPECT_GT(jt.counters().wasted_task_seconds, 0.0);
  ASSERT_FALSE(jt.recovery_times().empty());
  for (Seconds r : jt.recovery_times()) EXPECT_GT(r, 0.0);

  const auto m = run.metrics();
  EXPECT_GT(m.wasted_energy, 0.0);
  EXPECT_LT(m.wasted_energy, m.total_energy);
  EXPECT_GT(m.mean_recovery_time(), 0.0);
}

TEST(FaultRecovery, ExpiryDeclaresLossAndEAntFloorsPheromoneRow) {
  exp::RunConfig cfg = faulted_config();
  const MachineId victim = 0;
  const Seconds crash_time = 60.0;
  const Seconds downtime = 400.0;
  cfg.faults.crash_for(victim, crash_time, downtime);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(small_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  auto* eant = run.eant();
  // Loss must be declared within one expiry window plus a heartbeat of the
  // crash — the sweep runs at heartbeat granularity.
  const Seconds detect_deadline = crash_time +
                                  cfg.job_tracker.tracker_expiry_window +
                                  2.0 * mr::kHeartbeatInterval;
  bool checked_floor = false;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (sim.now() < crash_time) {
      EXPECT_TRUE(jt.tracker_available(victim));
    } else if (sim.now() > detect_deadline && !checked_floor &&
               !jt.tracker(victim).alive()) {
      EXPECT_TRUE(jt.tracker_lost(victim));
      EXPECT_FALSE(jt.tracker_available(victim));
      // Every active colony's trail at the dead machine sits at the floor:
      // E-Ant stopped steering work there.
      for (mr::JobId id : jt.active_jobs()) {
        if (!eant->pheromone().has_job(id)) continue;
        for (TaskKind kind : {TaskKind::kMap, TaskKind::kReduce}) {
          EXPECT_DOUBLE_EQ(eant->pheromone().trail(id, kind)[victim],
                           eant->pheromone().tau_min());
        }
      }
      checked_floor = true;
    }
  }
  EXPECT_TRUE(checked_floor) << "loss was never observed while jobs ran";
  // Heartbeats keep running after the workload drains; step past the
  // machine's repair and first post-restart heartbeat — the rejoin must
  // clear the lost flag and make the tracker schedulable again.
  const Seconds rejoin_deadline =
      crash_time + downtime + 2.0 * mr::kHeartbeatInterval;
  while (sim.now() < rejoin_deadline) {
    ASSERT_TRUE(sim.step());
  }
  EXPECT_TRUE(jt.tracker(victim).alive());
  EXPECT_FALSE(jt.tracker_lost(victim));
  EXPECT_TRUE(jt.tracker_available(victim));
}

TEST(FaultRecovery, DeadMachineReceivesNoWorkWhileLost) {
  exp::RunConfig cfg = faulted_config();
  const MachineId victim = 0;
  cfg.faults.crash_for(victim, 60.0, 400.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(small_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (!jt.tracker(victim).alive()) {
      ASSERT_EQ(jt.tracker(victim).running(TaskKind::kMap), 0);
      ASSERT_EQ(jt.tracker(victim).running(TaskKind::kReduce), 0);
      ASSERT_EQ(jt.tracker(victim).free_slots(TaskKind::kMap), 0);
      ASSERT_EQ(jt.tracker(victim).free_slots(TaskKind::kReduce), 0);
    }
  }
  EXPECT_EQ(jt.jobs_failed(), 0u);
}

TEST(FaultRecovery, FastRestartBeforeExpiryStillReclaimsLostWork) {
  // Down for well under the (default, 600 s) expiry window: the tracker is
  // never declared lost, but the crash evidence still forces a re-queue on
  // the first post-restart heartbeat.
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.faults.crash_for(0, 60.0, 20.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg);
  run.submit(small_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool ever_lost = false;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    ever_lost = ever_lost || jt.tracker_lost(0);
  }
  EXPECT_FALSE(ever_lost);
  EXPECT_GT(jt.counters().killed_attempts, 0u);
  EXPECT_EQ(jt.jobs_failed(), 0u);
  EXPECT_EQ(jt.jobs_completed(), 3u);
}

TEST(FaultRecovery, TransientFailuresEverywhereFailEveryJob) {
  // Near-certain attempt death: the job burns its attempt budget and fails,
  // and the run still terminates cleanly (all_done counts failures).
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 0;
  cfg.faults.task_failure_prob = 0.999;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg);
  run.submit({exp::single_job(workload::AppKind::kWordcount, 64.0 * 4, 1)});
  run.execute();

  auto& jt = run.job_tracker();
  EXPECT_EQ(jt.jobs_failed(), 1u);
  EXPECT_EQ(jt.jobs_completed(), 0u);
  EXPECT_TRUE(jt.job(0).failed());
  EXPECT_GE(jt.counters().failed_attempts,
            static_cast<std::size_t>(cfg.job_tracker.max_attempts));
  const auto m = run.metrics();
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_TRUE(m.jobs[0].failed);
  EXPECT_EQ(m.jobs_failed, 1u);
  EXPECT_GT(m.wasted_energy, 0.0);
}

TEST(FaultRecovery, BlacklistSidelinesFlakyTrackerThenForgives) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = 60.0;
  // A generous budget so the flaky machine's failures never kill the job.
  cfg.job_tracker.max_attempts = 50;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg);

  const MachineId flaky = 1;
  run.job_tracker().set_attempt_fault_hook(
      [&](const mr::TaskSpec&, MachineId m) -> std::optional<double> {
        if (m != flaky) return std::nullopt;
        return 0.5;  // every attempt on the flaky machine dies halfway
      });
  run.submit(small_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool ever_blacklisted = false;
  bool ever_forgiven = false;
  bool ever_drained = false;
  bool drained = false;  // leftovers running at blacklist time have died
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (jt.tracker_blacklisted(flaky)) {
      ever_blacklisted = true;
      ASSERT_FALSE(jt.tracker_available(flaky));
      // Blacklisting stops NEW work but does not kill running attempts;
      // once those die (the hook fails them all), the tracker must stay
      // idle for the rest of the sit-out.
      const int r = jt.tracker(flaky).running(TaskKind::kMap) +
                    jt.tracker(flaky).running(TaskKind::kReduce);
      if (drained) {
        ASSERT_EQ(r, 0);
      } else if (r == 0) {
        drained = true;
        ever_drained = true;
      }
    } else {
      if (ever_blacklisted) ever_forgiven = true;
      drained = false;
    }
  }
  EXPECT_TRUE(ever_blacklisted);
  EXPECT_TRUE(ever_drained) << "blacklisted tracker never went idle";
  EXPECT_TRUE(ever_forgiven) << "blacklist was never lifted during the run";
  EXPECT_EQ(jt.jobs_failed(), 0u);
  EXPECT_EQ(jt.jobs_completed(), 3u);
}

TEST(FaultRecovery, RecoveryTimesDrainAsRequeuedWorkCompletes) {
  exp::RunConfig cfg = faulted_config();
  cfg.faults.crash_for(0, 60.0, 400.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(small_workload());
  run.execute();

  auto& jt = run.job_tracker();
  ASSERT_FALSE(jt.recovery_times().empty());
  for (Seconds r : jt.recovery_times()) {
    EXPECT_GT(r, 0.0);
    // Re-execution cannot take longer than the whole run.
    EXPECT_LT(r, run.metrics().makespan);
  }
}

TEST(FaultRecovery, StochasticMachineFailuresRunToCompletion) {
  // MTBF/MTTR churn across the whole fleet: crashes and rejoins keep
  // happening and every job still finishes.
  exp::RunConfig cfg = faulted_config();
  cfg.faults.mtbf = 1500.0;
  cfg.faults.mttr = 60.0;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(small_workload());
  run.execute();

  auto& jt = run.job_tracker();
  EXPECT_EQ(jt.jobs_completed() + jt.jobs_failed(), 3u);
  ASSERT_NE(run.fault_injector(), nullptr);
  EXPECT_GT(run.fault_injector()->crashes(), 0u);
}

// --- blacklist decay ---------------------------------------------------------

// Drives machine 1 into the blacklist with a burst of failures that then
// stops, and reports (blacklist time, forgiveness time, makespan).
std::tuple<Seconds, Seconds, Seconds> blacklist_window(Seconds decay_window) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = 100000.0;  // effectively forever
  cfg.job_tracker.blacklist_decay_window = decay_window;
  cfg.job_tracker.max_attempts = 50;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg);

  const MachineId flaky = 1;
  bool burst_over = false;
  run.job_tracker().set_attempt_fault_hook(
      [&](const mr::TaskSpec&, MachineId m) -> std::optional<double> {
        if (m != flaky || burst_over) return std::nullopt;
        return 0.5;
      });
  auto jobs = exp::job_batch(workload::AppKind::kWordcount, 64.0 * 24, 2, 4);
  jobs[2].submit_time = 200.0;
  jobs[3].submit_time = 400.0;
  run.submit(jobs);

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  Seconds blacklisted_at = -1.0, forgiven_at = -1.0;
  while (!jt.all_done()) {
    EXPECT_TRUE(sim.step());
    if (blacklisted_at < 0.0 && jt.tracker_blacklisted(flaky)) {
      blacklisted_at = sim.now();
      burst_over = true;  // the machine behaves from here on
    }
    if (blacklisted_at >= 0.0 && forgiven_at < 0.0 &&
        !jt.tracker_blacklisted(flaky)) {
      forgiven_at = sim.now();
    }
  }
  return {blacklisted_at, forgiven_at, sim.now()};
}

TEST(BlacklistDecay, DecayWindowForgivesLongBeforeBlacklistDuration) {
  const auto [listed, forgiven, makespan] = blacklist_window(60.0);
  ASSERT_GE(listed, 0.0) << "flaky tracker was never blacklisted";
  ASSERT_GE(forgiven, 0.0) << "decay never lifted the blacklist";
  // Two failures halve to 1 < threshold within a window or two — forgiveness
  // must come from decay (a handful of windows), not the 100000 s duration.
  EXPECT_LT(forgiven - listed, 5 * 60.0);
  EXPECT_LT(forgiven, makespan);
}

TEST(BlacklistDecay, RegressionZeroWindowKeepsPreDecayPermanence) {
  // decay_window = 0 restores the pre-decay contract: with a blacklist
  // duration longer than the run, the sidelined tracker is never forgiven.
  const auto [listed, forgiven, makespan] = blacklist_window(0.0);
  ASSERT_GE(listed, 0.0) << "flaky tracker was never blacklisted";
  EXPECT_LT(listed, makespan);
  EXPECT_LT(forgiven, 0.0) << "blacklist lifted despite decay being disabled";
}

TEST(BlacklistDecay, StaleDurationTimerSparesALaterEpisode) {
  // Machine 1 is blacklisted, forgiven early by decay, then blacklisted
  // again.  The first episode's blacklist_duration timer fires inside the
  // second episode and must leave it alone: only a decay sweep, a full
  // window after the one that forgave the first, may end it that early.
  constexpr Seconds kDuration = 1500.0;
  constexpr Seconds kDecayWindow = 1000.0;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = kDuration;
  cfg.job_tracker.blacklist_decay_window = kDecayWindow;
  cfg.job_tracker.max_attempts = 50;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg);

  const MachineId flaky = 1;
  int doomed = 2;  // attempts on the flaky machine still to fail
  run.job_tracker().set_attempt_fault_hook(
      [&](const mr::TaskSpec&, MachineId m) -> std::optional<double> {
        if (m != flaky || doomed == 0) return std::nullopt;
        --doomed;
        return 0.5;
      });
  auto jobs = exp::job_batch(workload::AppKind::kWordcount, 25600.0, 2, 12);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = 300.0 * static_cast<double>(i);
  }
  run.submit(jobs);

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  std::vector<Seconds> changes;  // blacklisted, lifted, blacklisted, ...
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (jt.tracker_blacklisted(flaky) != (changes.size() % 2 == 1)) {
      changes.push_back(sim.now());
      if (changes.size() == 2) doomed = 2;  // fail again once forgiven
    }
  }
  ASSERT_GE(changes.size(), 4u) << "flaky tracker was not blacklisted twice";
  EXPECT_LT(changes[1] - changes[0], kDuration)
      << "decay did not forgive the first episode";
  EXPECT_GE(changes[3] - changes[1], kDecayWindow)
      << "second episode (from t=" << changes[2] << ") lifted at t="
      << changes[3] << ", by the first episode's timer";
}

// --- blacklist x quarantine interaction --------------------------------------

TEST(BlacklistQuarantine, RejoinWaitsForBothSuspensionsToClear) {
  // Regression for the state-priority rule: a node can be blacklisted
  // (fail-stop suspicion) and quarantined (fail-slow suspicion) at once, and
  // the decay of ONE must not hand it work while the other still stands.
  const MachineId victim = 1;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = 100000.0;  // only decay forgives
  // Wide enough that the victim's two mid-flight failures land inside ONE
  // window (they spread out because the limp stretches each attempt by a
  // different amount), yet still far shorter than the quarantine's decay.
  cfg.job_tracker.blacklist_decay_window = 90.0;
  cfg.job_tracker.health_min_samples = 2;
  cfg.job_tracker.quarantine_decay_window = 120.0;  // clears after blacklist
  cfg.job_tracker.max_attempts = 50;
  // The victim limps (driving its health down) while its attempts also die
  // halfway (driving its failure counter up).
  cfg.faults.slow_for(victim, 5.0, 120.0, 0.2, 0.5);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);

  bool burst_over = false;
  run.job_tracker().set_attempt_fault_hook(
      [&](const mr::TaskSpec&, MachineId m) -> std::optional<double> {
        if (m != victim || burst_over) return std::nullopt;
        return 0.5;
      });
  auto jobs = exp::job_batch(workload::AppKind::kWordcount, 64.0 * 24, 2, 5);
  jobs[1].submit_time = 40.0;
  jobs[2].submit_time = 80.0;
  jobs[3].submit_time = 200.0;
  jobs[4].submit_time = 320.0;
  run.submit(jobs);

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool ever_both = false;
  bool both_cleared = false;
  bool worked_after_clear = false;
  bool drained = false;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    const bool bl = jt.tracker_blacklisted(victim);
    const bool qu = jt.tracker_quarantined(victim);
    if (bl && qu) {
      ever_both = true;
      burst_over = true;  // both mechanisms latched; stop injecting
    }
    const int running = jt.tracker(victim).running(TaskKind::kMap) +
                        jt.tracker(victim).running(TaskKind::kReduce);
    if (bl || qu) {
      // Any standing suspicion blocks work — in particular during the
      // window where one of the two has already decayed.
      EXPECT_FALSE(jt.tracker_available(victim));
      if (drained) {
        EXPECT_EQ(running, 0)
            << "suspended node received work (bl=" << bl << " qu=" << qu
            << ") at t=" << sim.now();
      } else if (running == 0) {
        drained = true;
      }
    } else {
      drained = false;
      if (ever_both) {
        both_cleared = true;
        EXPECT_TRUE(jt.tracker_available(victim));
        if (running > 0) worked_after_clear = true;
      }
    }
  }
  EXPECT_TRUE(ever_both) << "blacklist and quarantine never overlapped";
  EXPECT_TRUE(both_cleared) << "the suspensions never both decayed";
  EXPECT_TRUE(worked_after_clear)
      << "victim never received work after both suspensions cleared";
  EXPECT_EQ(jt.jobs_failed(), 0u);
  EXPECT_EQ(jt.jobs_completed(), 5u);
}

TEST(BlacklistDecay, SpeculativeFailureReentersDecayedCounter) {
  // A decayed (forgiven) node is trusted with a speculative clone; the clone
  // fails.  That failure must land in the node's decayed counter like any
  // other — pushing it straight back over the threshold.
  const MachineId flaky = 1;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = 100000.0;
  cfg.job_tracker.blacklist_decay_window = 60.0;
  cfg.job_tracker.max_attempts = 50;
  cfg.job_tracker.speculative_execution = false;  // clones by hand only
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);

  // Phase 1 hook: every attempt on the flaky machine dies halfway, until the
  // blacklist latches.  Phase 2 hook: only the chosen speculative clone dies.
  bool burst_over = false;
  std::optional<std::pair<mr::JobId, mr::TaskIndex>> doomed_clone;
  run.job_tracker().set_attempt_fault_hook(
      [&](const mr::TaskSpec& spec, MachineId m) -> std::optional<double> {
        if (m != flaky) return std::nullopt;
        if (!burst_over) return 0.5;
        if (doomed_clone && spec.kind == TaskKind::kMap &&
            spec.job == doomed_clone->first &&
            spec.index == doomed_clone->second) {
          // Die almost immediately: the clone must fail before its original
          // completes (which would cancel it) and before the next decay
          // window halves the forgiven counter 1 -> 0.
          return 0.05;
        }
        return std::nullopt;
      });
  run.submit(small_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool forgiven = false;
  bool clone_launched = false;
  bool reblacklisted = false;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (!burst_over) {
      if (jt.tracker_blacklisted(flaky)) burst_over = true;
      continue;
    }
    if (!forgiven) {
      forgiven = !jt.tracker_blacklisted(flaky);  // decay halved 2 -> 1
      continue;
    }
    if (!clone_launched) {
      if (jt.tracker(flaky).free_slots(TaskKind::kMap) <= 0) continue;
      // Any running, unspeculated map whose original lives elsewhere.
      for (mr::JobId id : jt.active_jobs()) {
        const mr::JobState& js = jt.job(id);
        for (mr::TaskIndex i = 0; i < js.num_maps(); ++i) {
          if (js.status(TaskKind::kMap, i) != mr::TaskStatus::kRunning) {
            continue;
          }
          if (js.is_speculative(TaskKind::kMap, i)) continue;
          if (jt.tracker(flaky).is_running(id, TaskKind::kMap, i)) continue;
          doomed_clone = {{id, i}};
          if (jt.start_speculative(id, TaskKind::kMap, i,
                                   jt.tracker(flaky))) {
            clone_launched = true;
          } else {
            doomed_clone.reset();
          }
          break;
        }
        if (clone_launched) break;
      }
      continue;
    }
    if (jt.tracker_blacklisted(flaky)) reblacklisted = true;
  }
  EXPECT_TRUE(burst_over) << "flaky tracker was never blacklisted";
  EXPECT_TRUE(forgiven) << "decay never forgave the first blacklist";
  EXPECT_TRUE(clone_launched) << "no speculative clone could be placed";
  EXPECT_TRUE(reblacklisted)
      << "the failed clone did not re-enter the decayed counter";
  EXPECT_EQ(jt.jobs_failed(), 0u);
  EXPECT_EQ(jt.jobs_completed(), 3u);
}

// --- restart-anchored stochastic crash resampling ----------------------------

TEST(FaultInjector, RestartResamplesCrashDrawCausally) {
  // A scripted crash + recovery lands in the middle of a machine's pending
  // stochastic crash draw.  The pre-crash draw must be cancelled (not fire
  // into the downtime or instantly after recovery): every transition in the
  // log must strictly alternate down/up per machine with increasing times —
  // the failure process is re-anchored at each restart.
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.mtbf = 300.0;
  plan.mttr = 40.0;
  plan.crash_for(0, 50.0, 30.0).crash_for(1, 120.0, 60.0);
  sim::FaultInjector inj(sim, plan, Rng(9), 2);
  inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
  inj.start();
  run_until(sim, 20000.0);

  ASSERT_GT(inj.log().size(), 4u);
  std::map<std::size_t, bool> up;  // per-machine expected-next-state
  std::map<std::size_t, Seconds> last;
  for (const auto& t : inj.log()) {
    if (up.count(t.machine) > 0) {
      EXPECT_NE(t.up, up[t.machine])
          << "non-alternating transition on machine " << t.machine << " at "
          << t.time;
      EXPECT_GT(t.time, last[t.machine]);
    } else {
      EXPECT_FALSE(t.up) << "first transition must be a crash";
    }
    up[t.machine] = t.up;
    last[t.machine] = t.time;
  }
  // The scripted outages themselves are in the log at their exact times.
  EXPECT_DOUBLE_EQ(inj.log()[0].time, 50.0);
  EXPECT_FALSE(inj.log()[0].up);
}

// --- transition-stream pin ---------------------------------------------------

// FNV-1a over everything a FaultInjector does: every event it schedules and
// every event that executes (id and time), every handler call together with
// the injector's own view at that instant, every transition log and the
// per-attempt draws.
struct StreamDigest : sim::SimObserver {
  audit::Fnv1a fnv;
  std::size_t scheduled = 0;
  std::size_t executed = 0;

  void word(std::uint64_t w) { fnv.mix(w); }
  void time(Seconds t) { fnv.mix(t); }
  void on_event_scheduled(Seconds t, sim::EventId id) override {
    ++scheduled;
    word(1);
    time(t);
    word(id);
  }
  void on_event_executed(Seconds t, sim::EventId id) override {
    ++executed;
    word(2);
    time(t);
    word(id);
  }
};

// A random plan over every fault family.  Scripted times sit on a 10 s grid
// so scripted transitions tie with each other; a quarter of the stochastic
// processes have no repair (mttr = 0).  Each draw is its own statement: the
// order in which function arguments are evaluated is unspecified.
sim::FaultPlan random_fault_plan(Rng& g, std::size_t machines,
                                 std::size_t racks) {
  sim::FaultPlan plan;
  const auto when = [&] {
    return 10.0 * static_cast<double>(g.uniform_int(0, 300));
  };
  const auto repair = [&](double lo, double hi) {
    return g.bernoulli(0.25) ? 0.0 : g.uniform(lo, hi);
  };
  const auto machine = [&] {
    return static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(machines) - 1));
  };
  const auto count = [&](int hi) { return g.uniform_int(0, hi); };

  if (g.bernoulli(0.7)) {
    plan.mtbf = g.uniform(200.0, 1500.0);
    plan.mttr = repair(20.0, 200.0);
  }
  for (auto i = count(4); i > 0; --i) {
    const std::size_t m = machine();
    const Seconds t = when();
    plan.crash_for(m, t, g.uniform(10.0, 300.0));
  }
  if (g.bernoulli(0.3)) {
    const std::size_t m = machine();
    plan.crash_at(m, when());
  }
  if (g.bernoulli(0.3)) {
    const std::size_t m = machine();
    plan.recover_at(m, when());
  }

  if (g.bernoulli(0.6)) {
    plan.link_mtbf = g.uniform(150.0, 1000.0);
    plan.link_mttr = repair(10.0, 120.0);
    plan.link_fault_factor = g.bernoulli(0.5) ? 0.0 : 0.25;
  }
  for (auto i = count(3); i > 0; --i) {
    const std::size_t m = machine();
    const Seconds t = when();
    const Seconds d = g.uniform(10.0, 200.0);
    plan.degrade_link_for(m, t, d, g.bernoulli(0.5) ? 0.0 : 0.5);
  }
  for (auto i = count(2); i > 0; --i) {
    const auto rack = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(racks) - 1));
    const Seconds t = when();
    const Seconds d = g.uniform(10.0, 200.0);
    plan.degrade_trunk_for(rack, t, d, g.bernoulli(0.5) ? 0.0 : 0.5);
  }

  if (g.bernoulli(0.6)) {
    plan.slow_mtbf = g.uniform(150.0, 1000.0);
    plan.slow_mttr = repair(20.0, 200.0);
    plan.slow_cpu_factor = 0.5;
    plan.slow_io_factor = g.bernoulli(0.5) ? 0.7 : 1.0;
  }
  for (auto i = count(3); i > 0; --i) {
    const std::size_t m = machine();
    const Seconds t = when();
    const Seconds d = g.uniform(10.0, 200.0);
    plan.slow_for(m, t, d, 0.4, g.bernoulli(0.5) ? 0.8 : 1.0);
  }
  if (g.bernoulli(0.3)) {
    const std::size_t m = machine();
    const Seconds t = when();
    const Seconds d = g.uniform(50.0, 400.0);
    plan.rot(m, t, d, 0.3, static_cast<int>(g.uniform_int(1, 4)));
  }

  if (g.bernoulli(0.5)) {
    plan.jt_mtbf = g.uniform(300.0, 2000.0);
    plan.jt_mttr = repair(10.0, 100.0);
  }
  if (g.bernoulli(0.5)) {
    plan.nn_mtbf = g.uniform(300.0, 2000.0);
    plan.nn_mttr = repair(10.0, 100.0);
  }
  for (auto i = count(2); i > 0; --i) {
    const Seconds t = when();
    plan.crash_jobtracker_for(t, g.uniform(10.0, 200.0));
  }
  for (auto i = count(2); i > 0; --i) {
    const Seconds t = when();
    plan.crash_namenode_for(t, g.uniform(10.0, 200.0));
  }
  if (g.bernoulli(0.3)) {
    // A lone recovery: redundant unless a stochastic crash left it down.
    const auto target = g.bernoulli(0.5)
                            ? sim::MasterFaultEvent::Target::kJobTracker
                            : sim::MasterFaultEvent::Target::kNameNode;
    plan.master_events.push_back(sim::MasterFaultEvent{
        when(), target, sim::MasterFaultEvent::Kind::kRecover});
  }

  if (g.bernoulli(0.5)) plan.corruption_mtbf = g.uniform(100.0, 800.0);
  for (auto i = count(2); i > 0; --i) {
    const std::size_t m = machine();
    const Seconds t = when();
    if (g.bernoulli(0.5)) {
      plan.corrupt_machine_at(m, t);
    } else {
      plan.corrupt_replica_at(m, g.uniform_int(0, 50), t);
    }
  }

  if (g.bernoulli(0.5)) plan.task_failure_prob = g.uniform(0.0, 0.5);
  if (g.bernoulli(0.5)) plan.fetch_failure_prob = g.uniform(0.0, 0.5);
  if (g.bernoulli(0.5)) plan.shuffle_corruption_prob = g.uniform(0.0, 0.5);
  if (g.bernoulli(0.5)) plan.task_output_corruption_prob = g.uniform(0.0, 0.5);
  return plan;
}

TEST(FaultInjector, TransitionStreamsMatchTheRecordedDigest) {
  // Pins the exact event and transition streams of 60 random plans that mix
  // every fault family, processes without repair, and scripted faults
  // overlapping the stochastic ones.  A refactor of the injector that keeps
  // its behaviour keeps this digest; an intended behaviour change re-records
  // it.  The digest depends on libstdc++'s distributions, like the golden
  // rows.
  constexpr int kPlans = 60;
  constexpr Seconds kHorizon = 3500.0;
  StreamDigest d;
  std::size_t stochastic_crash_no_repair = 0, crashes = 0, link_faults = 0,
              slow_faults = 0, master_crashes = 0, corruptions = 0;
  for (int p = 0; p < kPlans; ++p) {
    Rng g(1000 + static_cast<std::uint64_t>(p));
    const auto machines = static_cast<std::size_t>(g.uniform_int(1, 5));
    const auto racks = static_cast<std::size_t>(g.uniform_int(1, 3));
    const sim::FaultPlan plan = random_fault_plan(g, machines, racks);
    if ((plan.mtbf > 0.0 && plan.mttr == 0.0) ||  // lint-ok: float-eq
        (plan.jt_mtbf > 0.0 && plan.jt_mttr == 0.0)) {  // lint-ok: float-eq
      ++stochastic_crash_no_repair;
    }

    sim::Simulator sim;
    sim.set_observer(&d);
    sim::FaultInjector inj(sim, plan, Rng(77 + static_cast<std::uint64_t>(p)),
                           machines, racks);
    const auto machine_call = [&](std::uint64_t tag, std::size_t m) {
      d.word(tag);
      d.time(sim.now());
      d.word(m);
      d.word(inj.is_up(m) ? 1 : 0);
      d.word(inj.log().size());
    };
    inj.set_handlers([&](std::size_t m) { machine_call(3, m); },
                     [&](std::size_t m) { machine_call(4, m); });
    inj.set_net_handler(
        [&](sim::NetFaultEvent::Target target, std::size_t i, double f) {
          d.word(5);
          d.time(sim.now());
          d.word(target == sim::NetFaultEvent::Target::kNodeLink ? 0 : 1);
          d.word(i);
          d.time(f);
          d.time(target == sim::NetFaultEvent::Target::kNodeLink
                     ? inj.node_link_factor(i)
                     : inj.trunk_factor(i));
          d.word(inj.link_faults());
        });
    inj.set_slow_handler([&](std::size_t m, double cpu, double io) {
      d.word(6);
      d.time(sim.now());
      d.word(m);
      d.time(cpu);
      d.time(io);
      d.time(inj.cpu_factor(m));
      d.time(inj.io_factor(m));
      d.word(inj.slow_log().size());
    });
    inj.set_master_handler([&](sim::MasterFaultEvent::Target target, bool up) {
      d.word(7);
      d.time(sim.now());
      d.word(target == sim::MasterFaultEvent::Target::kJobTracker ? 0 : 1);
      d.word(up ? 1 : 0);
      d.word(inj.jobtracker_up() ? 1 : 0);
      d.word(inj.namenode_up() ? 1 : 0);
      d.word(inj.master_log().size());
    });
    inj.set_corruption_handler(
        [&](std::size_t m, std::int64_t block, double pick) {
          d.word(8);
          d.time(sim.now());
          d.word(m);
          d.word(static_cast<std::uint64_t>(block));
          d.time(pick);
          d.word(inj.corruptions());
        });
    inj.start();
    run_until(sim, kHorizon);

    for (const auto& t : inj.log()) {
      d.time(t.time);
      d.word(t.machine);
      d.word(t.up ? 1 : 0);
    }
    for (const auto& t : inj.slow_log()) {
      d.time(t.time);
      d.word(t.machine);
      d.time(t.cpu_factor);
      d.time(t.io_factor);
    }
    for (const auto& t : inj.master_log()) {
      d.time(t.time);
      d.word(t.target == sim::MasterFaultEvent::Target::kJobTracker ? 0 : 1);
      d.word(t.up ? 1 : 0);
    }
    for (const auto& t : inj.corrupt_log()) {
      d.time(t.time);
      d.word(t.machine);
      d.word(static_cast<std::uint64_t>(t.block));
    }
    for (std::size_t m = 0; m < machines; ++m) {
      d.word(inj.is_up(m) ? 1 : 0);
      d.time(inj.node_link_factor(m));
      d.time(inj.cpu_factor(m));
      d.time(inj.io_factor(m));
    }
    for (std::size_t r = 0; r < racks; ++r) d.time(inj.trunk_factor(r));
    d.word(inj.jobtracker_up() ? 1 : 0);
    d.word(inj.namenode_up() ? 1 : 0);
    for (int i = 0; i < 10; ++i) {
      d.time(inj.draw_attempt_failure().value_or(-1.0));
      d.time(inj.draw_fetch_failure().value_or(-1.0));
      d.word(inj.draw_shuffle_corruption() ? 1 : 0);
      d.word(inj.draw_task_output_corruption() ? 1 : 0);
    }
    sim.set_observer(nullptr);

    crashes += inj.crashes();
    link_faults += inj.link_faults();
    slow_faults += inj.slow_faults();
    master_crashes += inj.master_crashes();
    corruptions += inj.corruptions();
  }
  std::printf(
      "transition streams: %d plans, %zu events scheduled, %zu executed; "
      "%zu crashes, %zu link faults, %zu slow faults, %zu master crashes, "
      "%zu corruptions; %zu plans without crash repair\n",
      kPlans, d.scheduled, d.executed, crashes, link_faults, slow_faults,
      master_crashes, corruptions, stochastic_crash_no_repair);
  // The plans must keep exercising every family, or the pin proves little.
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(link_faults, 0u);
  EXPECT_GT(slow_faults, 0u);
  EXPECT_GT(master_crashes, 0u);
  EXPECT_GT(corruptions, 0u);
  EXPECT_GT(stochastic_crash_no_repair, 0u);
  EXPECT_EQ(d.fnv.value(), 0x9d658e4685bfd52fULL)
      << "transition-stream digest moved: 0x" << std::hex << d.fnv.value();
}

}  // namespace
}  // namespace eant
