// Audit-layer suite: the FNV-1a digest primitive, AuditReport aggregation,
// seeded-violation detection (each corrupted invariant trips exactly its
// check), the abort-on-violation mode, clean end-to-end runs (including under
// fault injection, which exercises the crash/retry/expiry transition paths)
// and the determinism digest: bit-identical across reruns of the same
// RunConfig + seed, different across seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/digest.h"
#include "audit/report.h"
#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/msd.h"

namespace eant {
namespace {

using audit::AuditConfig;
using audit::AuditReport;
using audit::InvariantAuditor;
using audit::Record;
using audit::Severity;
using audit::TaskEvent;

// --- Fnv1a digest ------------------------------------------------------------

TEST(Fnv1a, EmptyHashIsOffsetBasis) {
  audit::Fnv1a h;
  EXPECT_EQ(h.value(), audit::Fnv1a::kOffsetBasis);
}

TEST(Fnv1a, MixChangesValueAndOrderMatters) {
  audit::Fnv1a a;
  a.mix(std::uint64_t{1});
  a.mix(std::uint64_t{2});
  audit::Fnv1a b;
  b.mix(std::uint64_t{2});
  b.mix(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), audit::Fnv1a::kOffsetBasis);
}

TEST(Fnv1a, SameStreamSameValue) {
  audit::Fnv1a a;
  audit::Fnv1a b;
  for (std::uint64_t w : {7ULL, 99ULL, 123456789ULL}) {
    a.mix(w);
    b.mix(w);
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(Fnv1a, DoubleMixUsesBitPattern) {
  audit::Fnv1a a;
  a.mix(1.5);
  audit::Fnv1a b;
  b.mix(1.5000000001);
  EXPECT_NE(a.value(), b.value());
}

// --- AuditReport -------------------------------------------------------------

TEST(AuditReport, CleanWhenEmptyOrWarningsOnly) {
  AuditReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_violations(), 0u);

  audit::Violation warn;
  warn.check = "suspicious";
  warn.severity = Severity::kWarning;
  warn.count = 3;
  report.violations.push_back(warn);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_violations(), 3u);

  audit::Violation err;
  err.check = "broken";
  err.severity = Severity::kError;
  err.count = 1;
  report.violations.push_back(err);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total_violations(), 4u);
}

TEST(AuditReport, SummaryNamesChecks) {
  AuditReport report;
  report.digest = 0xdead;
  report.digest_records = 10;
  EXPECT_NE(report.summary().find("audit clean"), std::string::npos);

  audit::Violation v;
  v.check = "slot-capacity";
  v.severity = Severity::kError;
  v.count = 2;
  v.first_time = 42.0;
  v.first_context = "machine 3";
  report.violations.push_back(v);
  const std::string s = report.summary();
  EXPECT_NE(s.find("slot-capacity"), std::string::npos);
  EXPECT_NE(s.find("machine 3"), std::string::npos);
}

TEST(AuditEnv, ReadsEantAuditVariable) {
  ASSERT_EQ(unsetenv("EANT_AUDIT"), 0);
  EXPECT_FALSE(audit::audit_env_enabled());
  for (const char* value : {"1", "on", "ON", "true", "YES"}) {
    ASSERT_EQ(setenv("EANT_AUDIT", value, 1), 0);
    EXPECT_TRUE(audit::audit_env_enabled()) << value;
  }
  for (const char* value : {"0", "off", "no", ""}) {
    ASSERT_EQ(setenv("EANT_AUDIT", value, 1), 0);
    EXPECT_FALSE(audit::audit_env_enabled()) << value;
  }
  ASSERT_EQ(unsetenv("EANT_AUDIT"), 0);
}

// --- seeded violations (direct auditor API) ----------------------------------

// A tiny 1-machine fixture: the auditor watches the real machine, so checks
// can be tripped by feeding it observations that contradict reality.
struct SeededFixture {
  sim::Simulator sim;
  cluster::Cluster cluster{sim};
  InvariantAuditor auditor;

  explicit SeededFixture(AuditConfig config = {}, int slots = 1)
      : auditor(sim, config) {
    cluster::MachineType type = cluster::catalog::desktop();
    type.map_slots = slots;
    type.reduce_slots = slots;
    cluster.add_machines(type, 1);
    auditor.attach_cluster(cluster);
  }
};

TEST(SeededViolation, CorruptedEnergyAccountingIsCaught) {
  SeededFixture fx;
  // Lie to the auditor: claim 8 cores of demand the machine never hosted.
  // Its independent integral then diverges from the machine's exact one.
  fx.auditor.on_machine_state(0, fx.sim.now(), 8.0, true);
  fx.sim.schedule_at(500.0, [] {});
  fx.sim.run();
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].check, "energy-conservation");
  EXPECT_FALSE(report.clean());
}

TEST(SeededViolation, HonestObservationsStayClean) {
  SeededFixture fx;
  fx.cluster.machine(0).adjust_demand(2.0);  // flows through the observer
  fx.sim.schedule_at(500.0, [] {});
  fx.sim.run();
  fx.cluster.machine(0).adjust_demand(-2.0);
  const AuditReport report = fx.auditor.finalize();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.digest_records, 0u);
}

TEST(SeededViolation, SlotOverCommitIsCaught) {
  SeededFixture fx;  // 1 map slot
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, true, 1, TaskEvent::kLaunch, 0);
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].check, "slot-capacity");
}

TEST(SeededViolation, IllegalTransitionIsCaught) {
  SeededFixture fx;
  // Finish without a launch: no running attempt exists.
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0);
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].check, "task-state-machine");
}

TEST(SeededViolation, SecondCommitWithoutRevertIsDoubleCounted) {
  SeededFixture fx;
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0);
  // A stale completion of the same task, with no revert in between.
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0);
  const AuditReport report = fx.auditor.finalize();
  std::vector<std::string> checks;
  for (const auto& v : report.violations) checks.push_back(v.check);
  EXPECT_NE(std::find(checks.begin(), checks.end(), "task-state-machine"),
            checks.end())
      << report.summary();
  EXPECT_NE(std::find(checks.begin(), checks.end(), "double-counted-energy"),
            checks.end())
      << report.summary();
}

TEST(SeededViolation, LegalLifecycleIncludingRetryAndRevertIsClean) {
  SeededFixture fx;
  // launch -> fail -> relaunch -> finish -> revert -> relaunch -> finish,
  // with a kill of a speculative twin in between: all legal Hadoop paths.
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFail, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, false, 0, TaskEvent::kLaunch, 0);  // reduce
  fx.auditor.on_task_transition(0, false, 0, TaskEvent::kKill, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kRevertDone, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0);
  const AuditReport report = fx.auditor.finalize();
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(SeededViolation, ThirdConcurrentAttemptIsCaught) {
  SeededFixture fx;
  fx.auditor.on_task_transition(0, false, 0, TaskEvent::kLaunch, 0);
  fx.auditor.on_task_transition(0, false, 0, TaskEvent::kLaunch, 0);  // twin ok
  fx.auditor.on_task_transition(0, false, 0, TaskEvent::kLaunch, 0);  // illegal
  const AuditReport report = fx.auditor.finalize();
  // The third launch is both a state-machine violation and a slot
  // over-commit (1 reduce slot) — the second launch already overflowed it.
  bool saw_state_machine = false;
  for (const auto& v : report.violations) {
    if (v.check == "task-state-machine") saw_state_machine = true;
  }
  EXPECT_TRUE(saw_state_machine) << report.summary();
}

TEST(SeededViolation, CausalityAndMonotonicityAreChecked) {
  SeededFixture fx;
  fx.sim.schedule_at(10.0, [] {});
  fx.sim.run();  // clock at 10
  fx.auditor.on_event_executed(12.0, 98);   // legal: raises the high-water mark
  fx.auditor.on_event_scheduled(5.0, 99);   // scheduling into the past
  fx.auditor.on_event_executed(3.0, 100);   // executing behind the clock
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].check, "heap-causality");
  EXPECT_EQ(report.violations[1].check, "time-monotonicity");
}

TEST(SeededViolation, RangeCheckFlagsOutOfBoundsAndNonFinite) {
  SeededFixture fx;
  fx.auditor.check_in_range("pheromone-bounds", 0.5, 0.05, 1e12, "tau");
  fx.auditor.check_in_range("pheromone-bounds", 0.01, 0.05, 1e12, "tau");
  fx.auditor.check_in_range("pheromone-bounds",
                            std::numeric_limits<double>::quiet_NaN(), 0.05,
                            1e12, "tau");
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].check, "pheromone-bounds");
  EXPECT_EQ(report.violations[0].count, 2u);
}

TEST(SeededViolation, AbortModeThrowsAtFirstOffence) {
  AuditConfig config;
  config.abort_on_violation = true;
  SeededFixture fx(config);
  EXPECT_THROW(
      fx.auditor.on_task_transition(0, true, 0, TaskEvent::kFinish, 0),
      InvariantError);
}

TEST(SeededViolation, ViolationsAggregatePerCheckWithFirstContext) {
  SeededFixture fx;
  fx.auditor.report_violation("custom-check", Severity::kError, "first hit");
  fx.auditor.report_violation("custom-check", Severity::kError, "second hit");
  const AuditReport report = fx.auditor.finalize();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].count, 2u);
  EXPECT_EQ(report.violations[0].first_context, "first hit");
}

// --- task table growth --------------------------------------------------------

/// One task's transitions, applied in this order whatever the interleaving.
struct TaskScript {
  std::uint64_t job = 0;
  bool is_map = true;
  std::uint64_t index = 0;
  std::size_t shape = 0;  ///< index into kShapes
};

/// Lifecycles whose verdicts depend on the task's own history: legal ones
/// (finish; fail and relaunch; commit, revert, recommit; a killed twin) and
/// illegal ones (a second commit, a revert of a task never done, a finish
/// with no attempt running), with the task-state-machine and
/// double-counted-energy violations each one reports.
struct Shape {
  std::vector<TaskEvent> events;
  std::size_t state_machine = 0;
  std::size_t double_counted = 0;
};
const std::vector<Shape> kShapes = {
    {{TaskEvent::kLaunch, TaskEvent::kFinish}, 0, 0},
    {{TaskEvent::kLaunch, TaskEvent::kFail, TaskEvent::kLaunch,
      TaskEvent::kFinish},
     0, 0},
    {{TaskEvent::kLaunch, TaskEvent::kFinish, TaskEvent::kRevertDone,
      TaskEvent::kLaunch, TaskEvent::kFinish},
     0, 0},
    {{TaskEvent::kLaunch, TaskEvent::kLaunch, TaskEvent::kKill,
      TaskEvent::kFinish},
     0, 0},
    {{TaskEvent::kLaunch, TaskEvent::kFinish, TaskEvent::kFinish}, 2, 1},
    {{TaskEvent::kRevertDone, TaskEvent::kLaunch, TaskEvent::kFinish}, 1, 0},
    {{TaskEvent::kFinish}, 1, 0},
};

/// Jobs 0-3 with five maps and ten reduces each, in id order, cycling
/// through the shapes.
std::vector<TaskScript> table_scripts() {
  std::vector<TaskScript> scripts;
  for (std::uint64_t job = 0; job < 4; ++job) {
    for (bool is_map : {true, false}) {
      for (std::uint64_t index = 0; index < (is_map ? 5u : 10u); ++index) {
        scripts.push_back({job, is_map, index, scripts.size() % kShapes.size()});
      }
    }
  }
  return scripts;
}

TEST(TaskTable, OutOfOrderIdsGrowTheTableToTheSameVerdicts) {
  const std::vector<TaskScript> scripts = table_scripts();
  // In id order, each task's lifecycle as one block.
  SeededFixture in_order({}, /*slots=*/64);
  for (const TaskScript& t : scripts) {
    for (TaskEvent e : kShapes[t.shape].events) {
      in_order.auditor.on_task_transition(t.job, t.is_map, t.index, e, 0);
    }
  }
  // Reversed (job 3 first, its reduce 9 before reduce 0) and interleaved:
  // every task's first transition, then every task's second, and so on.
  SeededFixture reversed({}, /*slots=*/64);
  for (std::size_t step = 0; step < 5; ++step) {
    for (auto t = scripts.rbegin(); t != scripts.rend(); ++t) {
      const std::vector<TaskEvent>& events = kShapes[t->shape].events;
      if (step < events.size()) {
        reversed.auditor.on_task_transition(t->job, t->is_map, t->index,
                                            events[step], 0);
      }
    }
  }

  std::size_t state_machine = 0;
  std::size_t double_counted = 0;
  for (const TaskScript& t : scripts) {
    state_machine += kShapes[t.shape].state_machine;
    double_counted += kShapes[t.shape].double_counted;
  }
  const AuditReport a = in_order.auditor.finalize();
  const AuditReport b = reversed.auditor.finalize();
  for (const AuditReport* r : {&a, &b}) {
    ASSERT_EQ(r->violations.size(), 2u) << r->summary();
    EXPECT_EQ(r->violations[0].check, "double-counted-energy");
    EXPECT_EQ(r->violations[0].count, double_counted);
    EXPECT_EQ(r->violations[1].check, "task-state-machine");
    EXPECT_EQ(r->violations[1].count, state_machine);
  }
  EXPECT_EQ(a.digest_records, b.digest_records);
  // The digest hashes the record stream in order, so each order has its
  // own recorded value.
  EXPECT_EQ(a.digest, 0x34a0a3d0d80f6911ull);
  EXPECT_EQ(b.digest, 0xbf824f7a046a8631ull);
}

// --- end-to-end: audited runs ------------------------------------------------

exp::RunConfig audited_config(std::uint64_t seed) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.noise = mr::NoiseConfig::typical();
  cfg.eant.control_interval = 120.0;
  cfg.eant.negative_feedback = false;
  cfg.audit.enabled = true;
  return cfg;
}

std::vector<workload::JobSpec> msd_jobs(std::uint64_t seed, int num_jobs) {
  workload::MsdConfig wl;
  wl.num_jobs = num_jobs;
  wl.input_scale = 1.0 / 200.0;
  wl.mean_interarrival = 60.0;
  Rng rng(seed);
  return workload::MsdGenerator(wl).generate(rng);
}

exp::RunMetrics run_audited(std::uint64_t seed, int num_jobs) {
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt,
               audited_config(seed));
  run.submit(msd_jobs(seed, num_jobs));
  run.execute();
  return run.metrics();
}

TEST(AuditedRun, FullWorkloadRunsViolationFree) {
  const exp::RunMetrics m = run_audited(42, 25);
  EXPECT_TRUE(m.audited);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.audit.digest_records, 0u);
  EXPECT_EQ(m.determinism_digest, m.audit.digest);
}

TEST(AuditedRun, FaultPathsRunViolationFree) {
  // Crashes, tracker expiry, transient failures and recovery all feed the
  // transition table; a clean report means the retry/expiry/crash paths obey
  // the task state machine and conservation laws.
  exp::RunConfig cfg = audited_config(7);
  cfg.faults.crash_for(2, 150.0, 400.0).crash_for(5, 300.0, 200.0);
  cfg.faults.task_failure_prob = 0.03;
  cfg.job_tracker.tracker_expiry_window = 60.0;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(msd_jobs(7, 15));
  run.execute();
  const exp::RunMetrics m = run.metrics();
  EXPECT_TRUE(m.audited);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  // The fault plan actually bit (otherwise this test checks nothing).
  EXPECT_GT(m.killed_attempts + m.failed_attempts, 0u);
}

TEST(AuditedRun, UnauditedRunReportsNoDigest) {
  exp::RunConfig cfg = audited_config(42);
  cfg.audit.enabled = false;
  ASSERT_EQ(unsetenv("EANT_AUDIT"), 0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(msd_jobs(42, 3));
  run.execute();
  const exp::RunMetrics m = run.metrics();
  EXPECT_FALSE(m.audited);
  EXPECT_EQ(m.determinism_digest, 0u);
}

TEST(AuditedRun, EnvVarForcesAuditing) {
  exp::RunConfig cfg = audited_config(42);
  cfg.audit.enabled = false;
  ASSERT_EQ(setenv("EANT_AUDIT", "ON", 1), 0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  ASSERT_EQ(unsetenv("EANT_AUDIT"), 0);
  run.submit(msd_jobs(42, 3));
  run.execute();
  const exp::RunMetrics m = run.metrics();
  EXPECT_TRUE(m.audited);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

// --- determinism digest ------------------------------------------------------

TEST(Determinism, IdenticalConfigAndSeedGiveIdenticalDigests) {
  const exp::RunMetrics a = run_audited(42, 20);
  const exp::RunMetrics b = run_audited(42, 20);
  EXPECT_EQ(a.determinism_digest, b.determinism_digest);
  EXPECT_EQ(a.audit.digest_records, b.audit.digest_records);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);  // lint-ok: float-eq
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);          // lint-ok: float-eq
}

TEST(Determinism, DifferentSeedsGiveDifferentDigests) {
  const exp::RunMetrics a = run_audited(42, 20);
  const exp::RunMetrics b = run_audited(43, 20);
  EXPECT_NE(a.determinism_digest, b.determinism_digest);
}

}  // namespace
}  // namespace eant
