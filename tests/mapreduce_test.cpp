// Unit tests for the MapReduce engine: job state machine, noise model,
// TaskTracker slot/sampling mechanics, JobTracker lifecycle (waves, reduce
// gating, shuffle, locality, speculation support).

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "common/stats.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "mapreduce/job_tracker.h"
#include "mapreduce/noise.h"
#include "sched/fifo.h"
#include "sim/simulator.h"
#include "workload/job_spec.h"

namespace eant::mr {
namespace {

workload::JobSpec wordcount_job(Megabytes input_mb = 256.0, int reduces = 2) {
  workload::JobSpec s;
  s.app = workload::AppKind::kWordcount;
  s.input_mb = input_mb;
  s.num_reduces = reduces;
  return s;
}

/// A fully wired single-type test cluster driving a FIFO scheduler.
struct Harness {
  explicit Harness(std::size_t machines = 2,
                   NoiseConfig noise_config = NoiseConfig::none(),
                   JobTrackerConfig jt_config = {},
                   cluster::MachineType type = cluster::catalog::desktop())
      : cluster(sim),
        namenode(Rng(11), machines),
        noise(noise_config, Rng(12)) {
    cluster.add_machines(type, machines);
    jt = std::make_unique<JobTracker>(sim, cluster, namenode, scheduler,
                                      noise, jt_config);
    jt->start_trackers();
  }

  void run_to_completion(Seconds limit = 48 * 3600.0) {
    while (!jt->all_done()) {
      ASSERT_LE(sim.now(), limit) << "workload did not finish in time";
      ASSERT_TRUE(sim.step());
    }
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  hdfs::NameNode namenode;
  NoiseModel noise;
  sched::FifoScheduler scheduler;
  std::unique_ptr<JobTracker> jt;
};

// --- TaskKind / JobState ------------------------------------------------------

TEST(TaskKind, Names) {
  EXPECT_EQ(kind_name(TaskKind::kMap), "map");
  EXPECT_EQ(kind_name(TaskKind::kReduce), "reduce");
}

TEST(JobState, InitMapsBuildsOneTaskPerBlock) {
  hdfs::NameNode nn(Rng(1), 4);
  JobState js(0, wordcount_job(64.0 * 5), 4);
  js.init_maps(nn.create_file(64.0 * 5), nn);
  EXPECT_EQ(js.num_maps(), 5u);
  EXPECT_EQ(js.pending(TaskKind::kMap), 5u);
  EXPECT_EQ(js.pending(TaskKind::kReduce), 0u);
  EXPECT_FALSE(js.reduces_built());
  for (TaskIndex i = 0; i < 5; ++i) {
    const TaskSpec& t = js.task(TaskKind::kMap, i);
    EXPECT_EQ(t.kind, TaskKind::kMap);
    EXPECT_DOUBLE_EQ(t.input_mb, 64.0);
    EXPECT_GT(t.cpu_ref_seconds, 0.0);
    EXPECT_EQ(js.status(TaskKind::kMap, i), TaskStatus::kPending);
  }
}

TEST(JobState, ClaimMapPrefersLocalSplit) {
  hdfs::NameNode nn(Rng(2), 8, 3);
  JobState js(0, wordcount_job(64.0 * 12), 8);
  const auto blocks = nn.create_file(64.0 * 12);
  js.init_maps(blocks, nn);

  Locality level = Locality::kOffRack;
  const auto idx = js.claim_map(0, level);
  ASSERT_TRUE(idx.has_value());
  const bool local = level == Locality::kNodeLocal;
  // If machine 0 holds any replica, the claim must be local to it.
  bool machine0_has_replica = false;
  for (hdfs::BlockId b : blocks) {
    if (nn.is_local(b, 0)) machine0_has_replica = true;
  }
  EXPECT_EQ(local, machine0_has_replica);
  if (local) {
    EXPECT_TRUE(nn.is_local(js.task(TaskKind::kMap, *idx).block, 0));
  }
  EXPECT_EQ(js.status(TaskKind::kMap, *idx), TaskStatus::kRunning);
  EXPECT_EQ(js.running(TaskKind::kMap), 1u);
}

TEST(JobState, ClaimFallsBackToRemote) {
  hdfs::NameNode nn(Rng(3), 8, 1);  // single replica: most nodes non-local
  JobState js(0, wordcount_job(64.0), 8);
  const auto blocks = nn.create_file(64.0);
  js.init_maps(blocks, nn);
  const cluster::MachineId holder = nn.locations(blocks[0])[0];
  const cluster::MachineId other = (holder + 1) % 8;
  Locality level = Locality::kNodeLocal;
  const auto idx = js.claim_map(other, level);
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(level == Locality::kNodeLocal);
}

TEST(JobState, ClaimExhaustsPendingThenReturnsNothing) {
  hdfs::NameNode nn(Rng(4), 2);
  JobState js(0, wordcount_job(64.0 * 3), 2);
  js.init_maps(nn.create_file(64.0 * 3), nn);
  Locality level = Locality::kOffRack;
  EXPECT_TRUE(js.claim_map(0, level).has_value());
  EXPECT_TRUE(js.claim_map(0, level).has_value());
  EXPECT_TRUE(js.claim_map(1, level).has_value());
  EXPECT_FALSE(js.claim_map(0, level).has_value());
  EXPECT_EQ(js.pending(TaskKind::kMap), 0u);
  EXPECT_EQ(js.running(TaskKind::kMap), 3u);
}

TEST(JobState, UnclaimReturnsTaskToPending) {
  hdfs::NameNode nn(Rng(5), 2);
  JobState js(0, wordcount_job(64.0), 2);
  js.init_maps(nn.create_file(64.0), nn);
  Locality level = Locality::kOffRack;
  const auto idx = js.claim_map(0, level);
  ASSERT_TRUE(idx.has_value());
  js.unclaim(TaskKind::kMap, *idx);
  EXPECT_EQ(js.status(TaskKind::kMap, *idx), TaskStatus::kPending);
  EXPECT_EQ(js.pending(TaskKind::kMap), 1u);
  EXPECT_TRUE(js.claim_map(1, level).has_value());
}

TEST(JobState, MarkDoneUpdatesCountsAndHistogram) {
  hdfs::NameNode nn(Rng(6), 2);
  JobState js(0, wordcount_job(64.0 * 2), 2);
  js.init_maps(nn.create_file(64.0 * 2), nn);
  Locality level = Locality::kOffRack;
  const auto idx = js.claim_map(0, level);
  js.mark_started(TaskKind::kMap, *idx, 0, 1.0);

  TaskReport r;
  r.spec = js.task(TaskKind::kMap, *idx);
  r.machine = 0;
  r.start = 1.0;
  r.finish = 11.0;
  js.mark_done(r);
  EXPECT_EQ(js.done(TaskKind::kMap), 1u);
  EXPECT_EQ(js.running(TaskKind::kMap), 0u);
  EXPECT_EQ(js.completed_per_machine(TaskKind::kMap)[0], 1u);
  EXPECT_EQ(js.started_per_machine(TaskKind::kMap)[0], 1u);
  EXPECT_DOUBLE_EQ(js.map_task_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(js.mean_completed_duration(TaskKind::kMap), 10.0);
  // Double completion is a contract violation.
  EXPECT_THROW(js.mark_done(r), PreconditionError);
}

TEST(JobState, ReduceLifecycleAndPhaseAccounting) {
  hdfs::NameNode nn(Rng(7), 2);
  JobState js(0, wordcount_job(64.0, 1), 2);
  js.init_maps(nn.create_file(64.0), nn);
  EXPECT_FALSE(js.claim_reduce().has_value());  // not built yet

  TaskSpec reduce;
  reduce.job = 0;
  reduce.index = 0;
  reduce.kind = TaskKind::kReduce;
  reduce.shuffle_seconds = 4.0;
  js.init_reduces({reduce});
  EXPECT_TRUE(js.reduces_built());
  EXPECT_EQ(js.pending(TaskKind::kReduce), 1u);

  const auto idx = js.claim_reduce();
  ASSERT_TRUE(idx.has_value());
  js.mark_started(TaskKind::kReduce, *idx, 1, 0.0);
  TaskReport r;
  r.spec = js.task(TaskKind::kReduce, *idx);
  r.machine = 1;
  r.start = 0.0;
  r.finish = 10.0;
  js.mark_done(r);
  EXPECT_DOUBLE_EQ(js.shuffle_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(js.reduce_task_seconds(), 6.0);
}

TEST(JobState, ExpectedMapOutputUsesProfileRatio) {
  hdfs::NameNode nn(Rng(8), 2);
  workload::JobSpec spec = wordcount_job(64.0 * 4);
  spec.app = workload::AppKind::kTerasort;  // ratio 1.0
  JobState js(0, spec, 2);
  js.init_maps(nn.create_file(spec.input_mb), nn);
  EXPECT_DOUBLE_EQ(js.expected_map_output_mb(), 256.0);
}

TEST(JobState, SpeculativeFlagLifecycle) {
  hdfs::NameNode nn(Rng(9), 2);
  JobState js(0, wordcount_job(64.0), 2);
  js.init_maps(nn.create_file(64.0), nn);
  EXPECT_THROW(js.mark_speculative(TaskKind::kMap, 0), PreconditionError);
  Locality level = Locality::kOffRack;
  const auto idx = js.claim_map(0, level);
  js.mark_speculative(TaskKind::kMap, *idx);
  EXPECT_TRUE(js.is_speculative(TaskKind::kMap, *idx));
}

TEST(JobState, RejectsInvalidConstruction) {
  workload::JobSpec bad = wordcount_job(0.0);
  EXPECT_THROW(JobState(0, bad, 2), PreconditionError);
  bad = wordcount_job(64.0, 0);
  EXPECT_THROW(JobState(0, bad, 2), PreconditionError);
}

// --- NoiseModel ---------------------------------------------------------------

TEST(Noise, NoneIsExactIdentity) {
  NoiseModel n(NoiseConfig::none(), Rng(1));
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(n.demand_multiplier(), 1.0);
    EXPECT_DOUBLE_EQ(n.duration_multiplier(), 1.0);
    EXPECT_DOUBLE_EQ(n.straggler_multiplier(), 1.0);
    EXPECT_DOUBLE_EQ(n.measured(0.37), 0.37);
  }
}

TEST(Noise, DemandJitterHasMeanOne) {
  NoiseConfig c;
  c.demand_jitter_sigma = 0.2;
  NoiseModel n(c, Rng(2));
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(n.demand_multiplier());
  EXPECT_NEAR(s.mean(), 1.0, 0.01);
  EXPECT_GT(s.stddev(), 0.15);
}

TEST(Noise, StragglerFrequencyAndRange) {
  NoiseConfig c;
  c.straggler_prob = 0.1;
  NoiseModel n(c, Rng(3));
  int stragglers = 0;
  for (int i = 0; i < 20000; ++i) {
    const double f = n.straggler_multiplier();
    if (f > 1.0) {  // non-stragglers return exactly 1; factors are in [1.5, 3]
      ++stragglers;
      EXPECT_GE(f, 1.5);
      EXPECT_LE(f, 3.0);
    }
  }
  EXPECT_NEAR(stragglers / 20000.0, 0.1, 0.01);
}

TEST(Noise, MeasurementErrorIsUnbiased) {
  NoiseConfig c;
  c.measurement_sigma = 0.1;
  NoiseModel n(c, Rng(4));
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(n.measured(0.5));
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_THROW(n.measured(-0.1), PreconditionError);
}

TEST(Noise, RejectsBadConfig) {
  NoiseConfig c;
  c.straggler_prob = 1.5;
  EXPECT_THROW(NoiseModel(c, Rng(5)), PreconditionError);
}

// --- TaskTracker / JobTracker --------------------------------------------------

TEST(JobTracker, SingleJobRunsToCompletion) {
  Harness h(2);
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 8, 2));
  h.run_to_completion();
  const JobState& js = h.jt->job(id);
  EXPECT_TRUE(js.complete());
  EXPECT_EQ(js.done(TaskKind::kMap), 8u);
  EXPECT_EQ(js.done(TaskKind::kReduce), 2u);
  EXPECT_GT(js.completion_time(), 0.0);
  EXPECT_TRUE(h.jt->active_jobs().empty());
}

TEST(JobTracker, SlotConstraintNeverViolated) {
  Harness h(2);
  // One machine type with 4 map + 2 reduce slots; watch every report.
  h.jt->set_report_listener([&](const TaskReport&) {
    for (cluster::MachineId m = 0; m < h.cluster.size(); ++m) {
      EXPECT_LE(h.jt->tracker(m).running(TaskKind::kMap), 4);
      EXPECT_LE(h.jt->tracker(m).running(TaskKind::kReduce), 2);
    }
  });
  h.jt->submit_now(wordcount_job(64.0 * 40, 6));
  h.run_to_completion();
}

TEST(JobTracker, ReducesWaitForAllMapsByDefault) {
  Harness h(2);
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 10, 2));
  bool saw_reduce_before_maps_done = false;
  h.jt->set_report_listener([&](const TaskReport& r) {
    if (r.spec.kind == TaskKind::kReduce &&
        h.jt->job(id).done(TaskKind::kMap) < 10) {
      saw_reduce_before_maps_done = true;
    }
  });
  h.run_to_completion();
  EXPECT_FALSE(saw_reduce_before_maps_done);
}

TEST(JobTracker, RemoteMapsPayReadPenalty) {
  // Force all maps remote vs all local and compare durations.
  JobTrackerConfig remote_cfg;
  remote_cfg.locality_override = [](const TaskSpec&, cluster::MachineId) {
    return false;
  };
  JobTrackerConfig local_cfg;
  local_cfg.locality_override = [](const TaskSpec&, cluster::MachineId) {
    return true;
  };
  double remote_time = 0.0, local_time = 0.0;
  {
    Harness h(2, NoiseConfig::none(), remote_cfg);
    const JobId id = h.jt->submit_now(wordcount_job(64.0 * 8, 1));
    h.run_to_completion();
    remote_time = h.jt->job(id).completion_time();
  }
  {
    Harness h(2, NoiseConfig::none(), local_cfg);
    const JobId id = h.jt->submit_now(wordcount_job(64.0 * 8, 1));
    h.run_to_completion();
    local_time = h.jt->job(id).completion_time();
  }
  EXPECT_GT(remote_time, local_time);
}

TEST(JobTracker, ReportsCarryUtilisationSamples) {
  Harness h(1);
  std::size_t reports = 0;
  h.jt->set_report_listener([&](const TaskReport& r) {
    ++reports;
    ASSERT_FALSE(r.samples.empty());
    double total = 0.0;
    for (const auto& s : r.samples) {
      EXPECT_GT(s.duration, 0.0);
      EXPECT_GE(s.util, 0.0);
      total += s.duration;
    }
    // Windows must tile the task's runtime exactly.
    EXPECT_NEAR(total, r.duration(), 1e-9);
  });
  h.jt->submit_now(wordcount_job(64.0 * 6, 2));
  h.run_to_completion();
  EXPECT_EQ(reports, 8u);
}

TEST(JobTracker, DeferredSubmissionHonoursSubmitTime) {
  Harness h(2);
  workload::JobSpec spec = wordcount_job(64.0 * 2, 1);
  spec.submit_time = 500.0;
  h.jt->submit(spec);
  EXPECT_FALSE(h.jt->all_done());
  h.run_to_completion();
  const JobState& js = h.jt->job(0);
  EXPECT_DOUBLE_EQ(js.submit_time(), 500.0);
  EXPECT_GT(js.finish_time(), 500.0);
}

TEST(JobTracker, MultipleJobsAllComplete) {
  Harness h(3);
  for (int i = 0; i < 5; ++i) h.jt->submit_now(wordcount_job(64.0 * 4, 1));
  h.run_to_completion();
  EXPECT_EQ(h.jt->jobs_completed(), 5u);
}

TEST(JobTracker, CapabilitySharesSumToOne) {
  Harness h(4);
  double total = 0.0;
  for (cluster::MachineId m = 0; m < 4; ++m) {
    total += h.jt->capability_share(m);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(JobTracker, ShuffleSkewPenaltyLengthensReduces) {
  // A one-map job leaves all of its map output on one of two equally
  // capable machines, half a total-variation distance from the balanced
  // placement, so the skew penalty must stretch the reduce's shuffle past
  // the unpenalised per_reduce / kShuffleMbps.
  Harness h(2, NoiseConfig::none(), {}, cluster::catalog::t420());
  auto spec = wordcount_job(64.0, 1);
  spec.app = workload::AppKind::kTerasort;
  const JobId id = h.jt->submit_now(spec);
  Seconds reduce_shuffle = 0.0;
  h.jt->set_report_listener([&](const TaskReport& r) {
    if (r.spec.kind == TaskKind::kReduce) {
      reduce_shuffle = r.spec.shuffle_seconds;
    }
  });
  h.run_to_completion();
  const Megabytes per_reduce = h.jt->job(id).expected_map_output_mb();
  ASSERT_GT(per_reduce, 0.0);
  EXPECT_GT(reduce_shuffle, per_reduce / kShuffleMbps);
}

TEST(JobTracker, SpeculativeAttemptWinnerKillsLoser) {
  Harness h(2);
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 2, 1));
  // Let the first map start, then speculate it on the other machine.
  bool speculated = false;
  std::size_t completions = 0;
  h.jt->set_report_listener(
      [&](const TaskReport& r) {
        if (r.spec.kind == TaskKind::kMap) ++completions;
      });
  while (!h.jt->all_done()) {
    if (!speculated &&
        h.jt->job(id).running(TaskKind::kMap) > 0) {
      for (cluster::MachineId m = 0; m < 2; ++m) {
        for (TaskIndex i = 0; i < 2; ++i) {
          if (h.jt->job(id).status(TaskKind::kMap, i) ==
                  TaskStatus::kRunning &&
              h.jt->start_speculative(id, TaskKind::kMap, i,
                                      h.jt->tracker(m))) {
            speculated = true;
          }
        }
      }
    }
    ASSERT_TRUE(h.sim.step());
  }
  EXPECT_TRUE(speculated);
  // Exactly one report per map task (losing attempts are dropped).
  EXPECT_EQ(completions, 2u);
  EXPECT_TRUE(h.jt->job(id).complete());
}

TEST(JobTracker, CancelOnFinishedAttemptReturnsFalse) {
  Harness h(1);
  const JobId id = h.jt->submit_now(wordcount_job(64.0, 1));
  h.run_to_completion();
  // Cancelling an attempt that already finished must be a no-op refusal,
  // not an error — the twin-kill after a speculative win hits this path.
  EXPECT_FALSE(h.jt->tracker(0).cancel_task(id, TaskKind::kMap, 0));
  EXPECT_FALSE(h.jt->tracker(0).cancel_task(id, TaskKind::kReduce, 0));
}

TEST(JobTracker, TwinKillNeverDoubleCountsCompleted) {
  Harness h(2);
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 2, 1));
  bool speculated = false;
  while (!h.jt->all_done()) {
    if (!speculated) {
      for (cluster::MachineId m = 0; m < 2 && !speculated; ++m) {
        for (TaskIndex i = 0; i < 2 && !speculated; ++i) {
          if (h.jt->job(id).status(TaskKind::kMap, i) == TaskStatus::kRunning &&
              h.jt->start_speculative(id, TaskKind::kMap, i,
                                      h.jt->tracker(m))) {
            speculated = true;
          }
        }
      }
    }
    ASSERT_TRUE(h.sim.step());
  }
  ASSERT_TRUE(speculated);
  // The loser of a speculated task is killed, not completed: the fleet-wide
  // completion counters must add up to exactly one completion per task.
  std::size_t completed_maps = 0;
  std::size_t completed_reduces = 0;
  for (cluster::MachineId m = 0; m < 2; ++m) {
    completed_maps += h.jt->tracker(m).completed(TaskKind::kMap);
    completed_reduces += h.jt->tracker(m).completed(TaskKind::kReduce);
  }
  EXPECT_EQ(completed_maps, 2u);
  EXPECT_EQ(completed_reduces, 1u);
}

TEST(JobTracker, FailedAttemptRequeuesAndJobStillCompletes) {
  Harness h(2);
  // The first two attempts launched (whichever machines get them) die
  // halfway; the engine must retry and finish, with speculation enabled.
  int faults_left = 2;
  h.jt->set_attempt_fault_hook(
      [&](const TaskSpec&, cluster::MachineId) -> std::optional<double> {
        if (faults_left <= 0) return std::nullopt;
        --faults_left;
        return 0.5;
      });
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 4, 1));
  h.run_to_completion();
  EXPECT_EQ(faults_left, 0);
  EXPECT_TRUE(h.jt->job(id).complete());
  EXPECT_EQ(h.jt->counters().failed_attempts, 2u);
  EXPECT_GT(h.jt->counters().wasted_task_seconds, 0.0);
  // The transient failures counted toward their tasks' attempt budgets.
  std::size_t budget_used = 0;
  for (TaskIndex i = 0; i < h.jt->job(id).num_maps(); ++i) {
    budget_used += static_cast<std::size_t>(
        h.jt->job(id).failed_attempts(TaskKind::kMap, i));
  }
  for (TaskIndex i = 0; i < h.jt->job(id).num_reduces(); ++i) {
    budget_used += static_cast<std::size_t>(
        h.jt->job(id).failed_attempts(TaskKind::kReduce, i));
  }
  EXPECT_EQ(budget_used, 2u);
}

TEST(JobTracker, JobFailsAfterMaxAttempts) {
  JobTrackerConfig cfg;
  cfg.max_attempts = 3;
  cfg.blacklist_threshold = 0;  // isolate the attempt-budget behaviour
  Harness h(2, NoiseConfig::none(), cfg);
  h.jt->set_attempt_fault_hook(
      [](const TaskSpec&, cluster::MachineId) { return 0.5; });
  std::size_t attempt_waste = 0;
  std::size_t job_waste = 0;
  h.jt->set_waste_listener([&](const TaskReport&, WasteReason reason) {
    if (reason == WasteReason::kAttemptFailed) ++attempt_waste;
    if (reason == WasteReason::kJobFailed) ++job_waste;
  });
  const JobId id = h.jt->submit_now(wordcount_job(64.0 * 2, 1));
  h.run_to_completion();
  EXPECT_TRUE(h.jt->job(id).failed());
  EXPECT_FALSE(h.jt->job(id).complete());
  EXPECT_EQ(h.jt->jobs_failed(), 1u);
  EXPECT_EQ(h.jt->jobs_completed(), 0u);
  EXPECT_TRUE(h.jt->active_jobs().empty());
  // The first task to burn its budget kills the job: exactly max_attempts
  // transient failures on that task, and the rest of the fleet's running
  // attempts are reaped as job-failure waste.
  EXPECT_GE(attempt_waste, static_cast<std::size_t>(cfg.max_attempts));
  // No machine may still host demand for the dead job.
  for (cluster::MachineId m = 0; m < 2; ++m) {
    EXPECT_EQ(h.jt->tracker(m).running(TaskKind::kMap), 0);
    EXPECT_EQ(h.jt->tracker(m).running(TaskKind::kReduce), 0);
  }
  (void)job_waste;  // may be zero when no sibling attempt was in flight
}

TEST(JobTracker, SpeculativeTwinSurvivesLoserFailure) {
  Harness h(2);
  // The job's single map fails near the end of its original attempt; a
  // speculative twin launched on the other machine must survive the loser's
  // failure and complete the task without the speculative flag leaking.
  bool fault_armed = true;
  h.jt->set_attempt_fault_hook(
      [&](const TaskSpec&, cluster::MachineId) -> std::optional<double> {
        if (!fault_armed) return std::nullopt;
        fault_armed = false;
        return 0.9;
      });
  const JobId id = h.jt->submit_now(wordcount_job(64.0, 1));
  bool speculated = false;
  while (!h.jt->all_done()) {
    if (!speculated &&
        h.jt->job(id).status(TaskKind::kMap, 0) == TaskStatus::kRunning) {
      // Duplicate onto whichever machine is NOT hosting the doomed original.
      for (cluster::MachineId m = 0; m < 2 && !speculated; ++m) {
        if (h.jt->tracker(m).is_running(id, TaskKind::kMap, 0)) {
          speculated = h.jt->start_speculative(id, TaskKind::kMap, 0,
                                               h.jt->tracker(1 - m));
        }
      }
    }
    ASSERT_TRUE(h.sim.step());
  }
  EXPECT_TRUE(speculated);
  EXPECT_TRUE(h.jt->job(id).complete());
  EXPECT_FALSE(h.jt->job(id).is_speculative(TaskKind::kMap, 0));
  EXPECT_EQ(h.jt->counters().failed_attempts, 1u);
  // Exactly one attempt completed the map: the surviving twin.
  EXPECT_EQ(h.jt->tracker(0).completed(TaskKind::kMap) +
                h.jt->tracker(1).completed(TaskKind::kMap),
            1u);
}

TEST(JobTracker, TrackerCancelRemovesDemand) {
  Harness h(1);
  const JobId id = h.jt->submit_now(wordcount_job(64.0, 1));
  // Step until the map starts.
  while (h.jt->job(id).running(TaskKind::kMap) == 0) {
    ASSERT_TRUE(h.sim.step());
  }
  auto& machine = h.cluster.machine(0);
  EXPECT_GT(machine.demand_cores(), 0.0);
  EXPECT_TRUE(h.jt->tracker(0).cancel_task(id, TaskKind::kMap, 0));
  EXPECT_DOUBLE_EQ(machine.demand_cores(), 0.0);
  EXPECT_FALSE(h.jt->tracker(0).cancel_task(id, TaskKind::kMap, 0));
}

TEST(JobTracker, RejectsMismatchedNameNode) {
  sim::Simulator sim;
  cluster::Cluster cluster(sim);
  cluster.add_machines(cluster::catalog::desktop(), 2);
  hdfs::NameNode nn(Rng(1), 5);  // wrong datanode count
  NoiseModel noise(NoiseConfig::none(), Rng(2));
  sched::FifoScheduler sched;
  EXPECT_THROW(JobTracker(sim, cluster, nn, sched, noise),
               PreconditionError);
}

}  // namespace
}  // namespace eant::mr
