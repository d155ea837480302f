// Fail-slow (gray failure) suite: slow-fault scripting and injection, the
// Machine's power-neutral performance multipliers, event-exact service-time
// re-estimation (audited via the work-integral and progress-monotonic
// invariants), limping-node detection (health EWMA -> quarantine ->
// release), the per-node speculation cap, and E-Ant's organic avoidance of
// limpers — their trails collapse through the Eq. 2 energy loop alone,
// without any explicit health signal.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/machine.h"
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

// --- FaultPlan slow scripting ------------------------------------------------

TEST(FailSlowPlan, SlowForBuildsPairedTransitions) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.has_slow_faults());
  plan.slow_for(3, 100.0, 50.0, 0.5, 0.8);
  EXPECT_TRUE(plan.has_slow_faults());
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.slow_events.size(), 2u);
  EXPECT_EQ(plan.slow_events[0].machine, 3u);
  EXPECT_DOUBLE_EQ(plan.slow_events[0].time, 100.0);
  EXPECT_DOUBLE_EQ(plan.slow_events[0].cpu_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.slow_events[0].io_factor, 0.8);
  EXPECT_DOUBLE_EQ(plan.slow_events[1].time, 150.0);
  EXPECT_DOUBLE_EQ(plan.slow_events[1].cpu_factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.slow_events[1].io_factor, 1.0);
}

TEST(FailSlowPlan, RotRampsDownThenSnapsBack) {
  sim::FaultPlan plan;
  plan.rot(1, 100.0, 80.0, 0.6, 4);
  // Four equal-time degradation steps plus the restore.
  ASSERT_EQ(plan.slow_events.size(), 5u);
  for (int s = 1; s <= 4; ++s) {
    const auto& e = plan.slow_events[s - 1];
    EXPECT_EQ(e.machine, 1u);
    EXPECT_DOUBLE_EQ(e.time, 100.0 + 80.0 * (s - 1) / 4);
    EXPECT_DOUBLE_EQ(e.cpu_factor, 1.0 + s / 4.0 * (0.6 - 1.0));
    EXPECT_DOUBLE_EQ(e.io_factor, 1.0);
  }
  // The ramp ends exactly at the final factor, then full speed returns.
  EXPECT_DOUBLE_EQ(plan.slow_events[3].cpu_factor, 0.6);
  EXPECT_DOUBLE_EQ(plan.slow_events[4].time, 180.0);
  EXPECT_DOUBLE_EQ(plan.slow_events[4].cpu_factor, 1.0);
}

TEST(FailSlowPlan, StochasticSlowKnobEnables) {
  sim::FaultPlan plan;
  plan.slow_mtbf = 2000.0;
  plan.slow_mttr = 100.0;
  plan.slow_cpu_factor = 0.5;
  EXPECT_TRUE(plan.has_slow_faults());
  EXPECT_TRUE(plan.enabled());
}

// --- FaultInjector -----------------------------------------------------------

void run_until(sim::Simulator& sim, Seconds horizon) {
  while (sim.now() < horizon) {
    if (!sim.step()) break;
  }
}

TEST(FailSlowInjector, ScriptedSlowTransitionsFireAndRestore) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.slow_for(1, 10.0, 20.0, 0.5, 0.8);
  sim::FaultInjector inj(sim, plan, Rng(7), 2);
  inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
  std::vector<std::tuple<std::size_t, double, double>> seen;
  inj.set_slow_handler([&](std::size_t m, double cpu, double io) {
    seen.emplace_back(m, cpu, io);
  });
  inj.start();
  EXPECT_DOUBLE_EQ(inj.cpu_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(inj.io_factor(1), 1.0);

  run_until(sim, 100.0);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_tuple(std::size_t{1}, 0.5, 0.8));
  EXPECT_EQ(seen[1], std::make_tuple(std::size_t{1}, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(inj.cpu_factor(1), 1.0);  // restored
  EXPECT_EQ(inj.slow_faults(), 1u);          // one degrading transition
  ASSERT_EQ(inj.slow_log().size(), 2u);
  EXPECT_DOUBLE_EQ(inj.slow_log()[0].time, 10.0);
  EXPECT_DOUBLE_EQ(inj.slow_log()[0].cpu_factor, 0.5);
  EXPECT_DOUBLE_EQ(inj.slow_log()[1].time, 30.0);
  EXPECT_DOUBLE_EQ(inj.slow_log()[1].cpu_factor, 1.0);
}

TEST(FailSlowInjector, StochasticEpisodesDeterministicPerSeed) {
  auto collect = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultPlan plan;
    plan.slow_mtbf = 400.0;
    plan.slow_mttr = 60.0;
    plan.slow_cpu_factor = 0.5;
    plan.slow_io_factor = 0.7;
    sim::FaultInjector inj(sim, plan, Rng(seed), 4);
    inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
    inj.set_slow_handler([](std::size_t, double, double) {});
    inj.start();
    run_until(sim, 5000.0);
    return inj.slow_log();
  };

  const auto a = collect(42);
  const auto b = collect(42);
  const auto c = collect(43);

  ASSERT_FALSE(a.empty()) << "slow_mtbf=400 over 5000 s must produce episodes";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_DOUBLE_EQ(a[i].cpu_factor, b[i].cpu_factor);
    // Episodes only ever toggle between the configured limp and full speed
    // (both copied verbatim from the plan, never through arithmetic).
    EXPECT_TRUE(a[i].cpu_factor == 0.5 || a[i].cpu_factor == 1.0);  // lint-ok: float-eq
  }
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().time, c.front().time);
}

// --- Machine perf multipliers ------------------------------------------------

TEST(FailSlowMachine, StretchArithmeticIsExact) {
  sim::Simulator sim;
  cluster::Machine m(sim, 0, cluster::catalog::desktop());

  // Healthy: the fast path returns the literal 1.0 and the effective runtime
  // IS the nominal runtime (bit-identity of the fault-free path).
  EXPECT_EQ(m.stretch_for(10.0, 50.0), 1.0);
  EXPECT_EQ(m.effective_task_runtime(10.0, 50.0),
            m.type().task_runtime(10.0, 50.0));

  // A pure-CPU task under a halved CPU takes exactly twice as long.
  m.set_perf_factors(0.5, 1.0);
  EXPECT_DOUBLE_EQ(m.stretch_for(10.0, 0.0), 2.0);
  // A pure-IO task is untouched by a CPU-only limp.
  EXPECT_DOUBLE_EQ(m.stretch_for(0.0, 50.0), 1.0);
  // Both factors halved: every phase doubles, whatever the mix.
  m.set_perf_factors(0.5, 0.5);
  EXPECT_DOUBLE_EQ(m.stretch_for(10.0, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(m.effective_task_runtime(10.0, 50.0),
                   2.0 * m.type().task_runtime(10.0, 50.0));

  // Recovery restores the exact fast path.
  m.set_perf_factors(1.0, 1.0);
  EXPECT_EQ(m.stretch_for(10.0, 50.0), 1.0);
}

TEST(FailSlowMachine, LimpIsPowerNeutral) {
  // The wasted-energy signature of a gray failure: the limping machine draws
  // the same power for its hosted demand while every task takes longer.
  sim::Simulator sim;
  cluster::Machine m(sim, 0, cluster::catalog::desktop());
  m.adjust_demand(2.0);
  const Watts healthy_power = m.power();
  const Seconds healthy_runtime = m.effective_task_runtime(10.0, 50.0);

  m.set_perf_factors(0.4, 0.5);
  EXPECT_DOUBLE_EQ(m.power(), healthy_power);
  EXPECT_DOUBLE_EQ(m.utilization(), 2.0 / m.type().cores);
  EXPECT_GT(m.effective_task_runtime(10.0, 50.0), healthy_runtime);
  // Same power x longer runtime = more joules per task, which is exactly
  // what the bench's wasted-energy column measures.
}

// --- end-to-end through the exp harness --------------------------------------

std::vector<workload::JobSpec> limp_workload(int extra_jobs = 0) {
  auto jobs =
      exp::job_batch(workload::AppKind::kWordcount, 64.0 * 24, 2, 3 + extra_jobs);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    jobs[i].submit_time = 40.0 * static_cast<double>(i);
  }
  return jobs;
}

TEST(FailSlowRun, AuditedRunSurvivesLimpRotAndStochasticEpisodes) {
  // The auditor is the oracle for event-exact re-estimation: every stretch
  // and re-rate of an in-flight attempt must keep the work integral
  // consistent and progress monotonic, or the run reports a violation.
  auto run_once = [] {
    exp::RunConfig cfg;
    cfg.seed = 7;
    cfg.noise = mr::NoiseConfig::typical();
    cfg.audit.enabled = true;
    cfg.faults.slow_for(1, 100.0, 300.0, 0.4, 0.6);
    cfg.faults.rot(5, 150.0, 200.0, 0.5);
    cfg.faults.slow_mtbf = 1500.0;
    cfg.faults.slow_mttr = 120.0;
    cfg.faults.slow_cpu_factor = 0.6;
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
    run.submit(limp_workload(1));
    run.execute();
    return run.metrics();
  };

  const exp::RunMetrics m = run_once();
  EXPECT_TRUE(m.audited);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_EQ(m.jobs_failed, 0u);
  // The plan actually bit: the scripted limp and rot alone degrade 5 times.
  EXPECT_GE(m.perf_faults, 5u);

  // Slow faults are part of the deterministic event stream: bit-identical
  // digests on a re-run.
  const exp::RunMetrics m2 = run_once();
  EXPECT_EQ(m.determinism_digest, m2.determinism_digest);
  EXPECT_EQ(m.perf_faults, m2.perf_faults);
}

TEST(FailSlowRun, FaultFreeDigestImmuneToDetectionKnobs) {
  // The whole detection stack (progress rates -> health EWMA -> quarantine)
  // must be inert on a healthy fleet: a healthy progress rate is exactly
  // 1.0, so the EWMA never moves and no knob setting can change a single
  // scheduling decision fault-free.
  auto digest = [](double threshold, double alpha, int min_samples) {
    exp::RunConfig cfg;
    cfg.seed = 11;
    cfg.noise = mr::NoiseConfig::typical();
    cfg.audit.enabled = true;
    cfg.job_tracker.quarantine_threshold = threshold;
    if (alpha > 0.0) cfg.job_tracker.health_ewma_alpha = alpha;
    cfg.job_tracker.health_min_samples = min_samples;
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
    run.submit(limp_workload());
    run.execute();
    return run.metrics().determinism_digest;
  };

  const auto defaults = digest(0.55, 0.25, 4);
  EXPECT_EQ(defaults, digest(0.0, 0.25, 4));   // detection off entirely
  EXPECT_EQ(defaults, digest(0.55, 0.9, 1));   // hair-trigger detection
}

TEST(FailSlowRun, QuarantineLifecycleDetectsAndReleasesLimper) {
  const MachineId victim = 1;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.health_min_samples = 3;
  cfg.job_tracker.quarantine_decay_window = 60.0;
  cfg.faults.slow_for(victim, 30.0, 150.0, 0.2, 0.5);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(limp_workload(1));

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool ever_quarantined = false;
  bool ever_released = false;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (jt.tracker_quarantined(victim)) {
      ever_quarantined = true;
      // Quarantine is the fail-SLOW state: the node is alive and
      // heartbeating — it is neither lost nor blacklisted — yet receives no
      // new work.
      EXPECT_TRUE(jt.tracker(victim).alive());
      EXPECT_FALSE(jt.tracker_lost(victim));
      EXPECT_FALSE(jt.tracker_blacklisted(victim));
      EXPECT_FALSE(jt.tracker_available(victim));
      EXPECT_LT(jt.node_health(victim), 1.0);
    } else if (ever_quarantined) {
      ever_released = true;
    }
  }
  EXPECT_TRUE(ever_quarantined) << "limping node was never quarantined";
  EXPECT_TRUE(ever_released) << "quarantine never released the healed node";
  EXPECT_GE(jt.counters().quarantine_episodes, 1u);
  EXPECT_EQ(jt.jobs_failed(), 0u);

  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.quarantine_episodes, jt.counters().quarantine_episodes);
  EXPECT_EQ(m.perf_faults, 1u);
}

// Finds two distinct map tasks running on `victim` and issues one
// speculative clone of each on two other machines; returns the two
// start_speculative results.  Used to pin the per-node clone cap.
std::pair<bool, bool> speculate_two_from_victim(int cap) {
  const MachineId victim = 1;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.speculative_execution = false;  // manual control only
  cfg.job_tracker.max_speculative_per_node = cap;
  cfg.job_tracker.quarantine_threshold = 0.0;  // keep the victim available
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(limp_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  bool limped = false;
  while (!jt.all_done()) {
    if (!sim.step()) break;
    if (!limped && sim.now() > 30.0) {
      // What the injector's slow handler would do, minus the timing
      // dependence: the victim crawls from here on.
      jt.tracker(victim).set_perf_factors(0.25, 0.5);
      limped = true;
    }
    if (!limped) continue;

    // Two distinct running, unspeculated maps whose original lives on the
    // victim.
    std::vector<std::pair<mr::JobId, mr::TaskIndex>> targets;
    for (mr::JobId id : jt.active_jobs()) {
      const mr::JobState& js = jt.job(id);
      for (mr::TaskIndex i = 0; i < js.num_maps(); ++i) {
        if (!jt.tracker(victim).is_running(id, TaskKind::kMap, i)) continue;
        if (js.is_speculative(TaskKind::kMap, i)) continue;
        targets.emplace_back(id, i);
      }
    }
    // Two healthy machines with a free map slot to host the clones.
    std::vector<MachineId> hosts;
    for (MachineId h = 0; h < run.cluster().size(); ++h) {
      if (h == victim || !jt.tracker_available(h)) continue;
      if (jt.tracker(h).free_slots(TaskKind::kMap) > 0) hosts.push_back(h);
    }
    if (targets.size() < 2 || hosts.size() < 2) continue;

    const bool first = jt.start_speculative(targets[0].first, TaskKind::kMap,
                                            targets[0].second,
                                            jt.tracker(hosts[0]));
    const bool second = jt.start_speculative(targets[1].first, TaskKind::kMap,
                                             targets[1].second,
                                             jt.tracker(hosts[1]));
    return {first, second};
  }
  ADD_FAILURE() << "never found two clone targets plus two free hosts";
  return {false, false};
}

TEST(FailSlowRun, SpeculativeClonesPerNodeAreCapped) {
  // cap=1: the first clone of a victim-hosted original launches, the second
  // is refused while the first still runs.
  const auto [first_capped, second_capped] = speculate_two_from_victim(1);
  EXPECT_TRUE(first_capped);
  EXPECT_FALSE(second_capped);

  // cap=0 is stock Hadoop: unlimited.
  const auto [first_free, second_free] = speculate_two_from_victim(0);
  EXPECT_TRUE(first_free);
  EXPECT_TRUE(second_free);
}

// --- E-Ant vs the limper -----------------------------------------------------

TEST(EAntFailSlow, TrailCollapsesOnLimperWithoutHealthSignal) {
  // No quarantine, no speculation, no slow-completion feedback: the ONLY
  // force acting on the limper is E-Ant's energy loop.  Its tasks burn more
  // Eq. 2 energy (same power, longer runtime), deposits shrink, evaporation
  // does the rest — the trail at the limper must fall below a healthy
  // machine of the same type.  The pair comes from the energy-efficient
  // t110 group: the desktops' trails sit at the pheromone floor under E-Ant
  // regardless of health (they are energy-hogs), which would mask the
  // within-type contrast this test is about.
  const MachineId victim = 8;  // t110
  const MachineId twin = 9;    // t110
  exp::RunConfig cfg;
  cfg.seed = 11;
  cfg.eant.control_interval = 60.0;
  cfg.eant.negative_feedback = false;
  // Machine-level exchange averages deposits across a homogeneous group —
  // and a gray failure is precisely a machine that silently stops being
  // homogeneous with its twins.  Disable it so the per-machine signal the
  // energy loop produces is visible in the trail (with it on, the victim's
  // inflated task energy is smeared across all desktops).
  cfg.eant.machine_exchange = false;
  cfg.job_tracker.quarantine_threshold = 0.0;
  cfg.job_tracker.speculative_execution = false;
  cfg.faults.slow_for(victim, 30.0, 1.0e6, 0.3, 0.5);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  // Long-lived colonies: 3 x 96 maps over 64 map slots keeps every job
  // alive across many control intervals, so the deposit/evaporation loop has
  // time to starve the limper's trails.
  run.submit(exp::job_batch(workload::AppKind::kWordcount, 64.0 * 96, 8, 3));

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  auto* eant = run.eant();
  ASSERT_NE(eant, nullptr);

  // Last observed (victim, twin) map-trail pair per colony, refreshed every
  // step while the colony is still saturated (undispatched maps remain).
  // The drain phase is deliberately excluded: once the backlog empties, the
  // healthy twin goes idle (no completions, no deposits) while the limper
  // still grinds its stragglers, which would invert the signal for reasons
  // that have nothing to do with learning.
  std::map<mr::JobId, std::pair<double, double>> last_trail;
  while (!jt.all_done()) {
    ASSERT_TRUE(sim.step());
    if (eant->intervals() < 2) continue;
    for (mr::JobId id : jt.active_jobs()) {
      if (!eant->pheromone().has_job(id)) continue;
      const mr::JobState& js = jt.job(id);
      if (!js.has_pending(TaskKind::kMap)) continue;
      const auto& trail = eant->pheromone().trail(id, TaskKind::kMap);
      last_trail[id] = {trail[victim], trail[twin]};
    }
  }
  ASSERT_FALSE(last_trail.empty()) << "no colony reached a sampleable state";
  for (const auto& [id, pair] : last_trail) {
    EXPECT_LT(pair.first, pair.second)
        << "job " << id << ": limper trail did not collapse";
  }
  const std::size_t done_victim =
      jt.tracker(victim).completed(TaskKind::kMap) +
      jt.tracker(victim).completed(TaskKind::kReduce);
  const std::size_t done_twin = jt.tracker(twin).completed(TaskKind::kMap) +
                                jt.tracker(twin).completed(TaskKind::kReduce);
  EXPECT_LT(done_victim, done_twin);
}

// Completed-task share of the 4 limpers in the *steady state*: tasks
// finished after `warmup` seconds, so E-Ant's learning phase (during which
// it assigns like any other scheduler) does not dilute the comparison.
double limper_task_share(exp::SchedulerKind kind, Seconds warmup) {
  const std::vector<MachineId> limpers = {1, 5, 9, 13};
  exp::RunConfig cfg;
  cfg.seed = 7;
  cfg.eant.control_interval = 60.0;
  cfg.eant.negative_feedback = false;
  // No detection stack for either side: the comparison isolates what the
  // assignment policy itself does with a silently limping minority.
  cfg.job_tracker.quarantine_threshold = 0.0;
  cfg.job_tracker.speculative_execution = false;
  for (MachineId v : limpers) cfg.faults.slow_for(v, 30.0, 1.0e7, 0.3, 0.5);
  exp::Run run(exp::paper_fleet(), kind, cfg);
  // 384 maps over 64 map slots: the fleet stays oversubscribed for many
  // control intervals, so a blind scheduler keeps feeding the limpers as
  // long as they have free slots while E-Ant has time to learn.
  run.submit(exp::job_batch(workload::AppKind::kWordcount, 64.0 * 96, 8, 4));

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  const std::size_t machines = run.cluster().size();
  std::vector<std::size_t> at_warmup(machines, 0);
  bool snapshotted = false;
  auto completed = [&](MachineId m) {
    return jt.tracker(m).completed(TaskKind::kMap) +
           jt.tracker(m).completed(TaskKind::kReduce);
  };
  while (!jt.all_done()) {
    EXPECT_TRUE(sim.step());
    if (!snapshotted && sim.now() >= warmup) {
      for (MachineId m = 0; m < machines; ++m) at_warmup[m] = completed(m);
      snapshotted = true;
    }
  }
  EXPECT_TRUE(snapshotted) << "run finished before the warmup elapsed";
  EXPECT_EQ(jt.jobs_failed(), 0u);
  std::size_t on_limpers = 0;
  std::size_t total = 0;
  for (MachineId m = 0; m < machines; ++m) {
    const std::size_t c = completed(m) - at_warmup[m];
    total += c;
    for (MachineId v : limpers) {
      if (v == m) on_limpers += c;
    }
  }
  EXPECT_GT(total, 0u);
  return static_cast<double>(on_limpers) / static_cast<double>(total);
}

TEST(EAntFailSlow, FourLimperShareFallsBelowFair) {
  // The PR's acceptance scenario: 4 of 16 machines limping at 30% CPU in an
  // oversubscribed run.  Fair keeps routing work proportionally to slots;
  // E-Ant's energy feedback starves the limpers' trails, so their share of
  // completed work must end up measurably below Fair's.  The comparison
  // window starts after 300 s — five control intervals — because before the
  // trails differentiate E-Ant assigns just like Fair does.
  const Seconds warmup = 300.0;
  const double fair = limper_task_share(exp::SchedulerKind::kFair, warmup);
  const double eant = limper_task_share(exp::SchedulerKind::kEAnt, warmup);
  EXPECT_GT(fair, 0.05) << "Fair stopped using the limpers entirely?";
  EXPECT_LT(eant, fair);
  EXPECT_LT(eant, 0.85 * fair) << "E-Ant's avoidance is not 'measurable'";
}

}  // namespace
}  // namespace eant
