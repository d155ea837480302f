// Control-plane fault-tolerance suite: scripted/stochastic master faults in
// the FaultInjector, epoch fencing of stale heartbeats, the re-registration
// storm, checkpointed orphan resolution (commit from coverage vs amnesia
// requeue), blacklist-persists/quarantine-resets semantics across failover,
// NameNode snapshot/restore, and the digest-neutrality of the failover
// machinery on fault-free runs.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "exp/builders.h"
#include "exp/runner.h"
#include "sched/capacity.h"
#include "hdfs/namenode.h"
#include "mapreduce/job_tracker.h"
#include "net/topology.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/job_spec.h"

namespace eant {
namespace {

using cluster::MachineId;

// A batch big enough that attempts are finishing continuously for several
// minutes — the raw material for fencing and orphan resolution.
std::vector<workload::JobSpec> busy_workload(int jobs = 3) {
  return exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, jobs);
}

// --- FaultPlan / FaultInjector ----------------------------------------------

TEST(MasterFaultPlan, HelpersBuildPairedTransitions) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.has_master_faults());
  plan.crash_jobtracker_for(100.0, 30.0).crash_namenode_for(200.0, 40.0);
  EXPECT_TRUE(plan.has_master_faults());
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.master_events.size(), 4u);
  EXPECT_EQ(plan.master_events[0].target,
            sim::MasterFaultEvent::Target::kJobTracker);
  EXPECT_EQ(plan.master_events[0].kind, sim::MasterFaultEvent::Kind::kCrash);
  EXPECT_DOUBLE_EQ(plan.master_events[0].time, 100.0);
  EXPECT_EQ(plan.master_events[1].kind, sim::MasterFaultEvent::Kind::kRecover);
  EXPECT_DOUBLE_EQ(plan.master_events[1].time, 130.0);
  EXPECT_EQ(plan.master_events[2].target,
            sim::MasterFaultEvent::Target::kNameNode);
  EXPECT_DOUBLE_EQ(plan.master_events[3].time, 240.0);

  sim::FaultPlan stochastic;
  stochastic.jt_mtbf = 1000.0;
  EXPECT_TRUE(stochastic.has_master_faults());
  EXPECT_TRUE(stochastic.enabled());
}

TEST(MasterFaultInjector, ScriptedMasterTransitionsFireInOrder) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.crash_jobtracker_for(10.0, 5.0).crash_namenode_for(12.0, 10.0);
  sim::FaultInjector inj(sim, plan, Rng(7), 4);
  inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
  std::vector<std::pair<bool, bool>> seen;  // (is_jobtracker, up)
  inj.set_master_handler([&](sim::MasterFaultEvent::Target t, bool up) {
    seen.push_back({t == sim::MasterFaultEvent::Target::kJobTracker, up});
  });
  inj.start();
  EXPECT_TRUE(inj.jobtracker_up());
  EXPECT_TRUE(inj.namenode_up());
  sim.run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<bool, bool>{true, false}));   // JT down @10
  EXPECT_EQ(seen[1], (std::pair<bool, bool>{false, false}));  // NN down @12
  EXPECT_EQ(seen[2], (std::pair<bool, bool>{true, true}));    // JT up @15
  EXPECT_EQ(seen[3], (std::pair<bool, bool>{false, true}));   // NN up @22
  EXPECT_TRUE(inj.jobtracker_up());
  EXPECT_TRUE(inj.namenode_up());
  EXPECT_EQ(inj.master_crashes(), 2u);
  EXPECT_EQ(inj.master_log().size(), 4u);
}

TEST(MasterFaultInjector, StochasticMasterCrashesAlternateAndReproduce) {
  auto log_for = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultPlan plan;
    plan.jt_mtbf = 200.0;
    plan.jt_mttr = 50.0;
    plan.nn_mtbf = 400.0;
    plan.nn_mttr = 30.0;
    sim::FaultInjector inj(sim, plan, Rng(seed), 4);
    inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
    inj.set_master_handler([](sim::MasterFaultEvent::Target, bool) {});
    inj.start();
    while (sim.now() < 2000.0) {
      if (!sim.step()) break;
    }
    return inj.master_log();
  };

  const auto log = log_for(3);
  ASSERT_GE(log.size(), 4u);
  // Per target the transitions strictly alternate down/up.
  bool jt_up = true, nn_up = true;
  for (const auto& t : log) {
    bool& up = t.target == sim::MasterFaultEvent::Target::kJobTracker ? jt_up
                                                                      : nn_up;
    EXPECT_NE(t.up, up) << "redundant master transition";
    up = t.up;
  }
  // Same seed, same schedule; different seed, different schedule.
  const auto again = log_for(3);
  ASSERT_EQ(again.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].time, log[i].time);
    EXPECT_EQ(again[i].target, log[i].target);
  }
  const auto other = log_for(4);
  bool differs = other.size() != log.size();
  for (std::size_t i = 0; !differs && i < log.size(); ++i) {
    differs = other[i].time != log[i].time;
  }
  EXPECT_TRUE(differs);
}

// --- epoch fencing -----------------------------------------------------------

TEST(Failover, StaleHeartbeatsAreFencedWhileMasterDown) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.audit.enabled = true;
  cfg.job_tracker.reregistration_window = 2.0;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(busy_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  ASSERT_TRUE(jt.master_up());
  const std::uint64_t epoch_before = jt.master_epoch();

  // Let the run warm up, then pull the master out from between steps.
  while (sim.now() < 60.0) ASSERT_TRUE(sim.step());
  jt.crash_master();
  EXPECT_FALSE(jt.master_up());
  const Seconds down_until = sim.now() + 45.0;
  while (sim.now() < down_until) ASSERT_TRUE(sim.step());
  // Every heartbeat of the outage was fenced, none assigned work.
  EXPECT_GT(jt.counters().fenced_heartbeats, 0u);
  const std::size_t fenced_during_outage = jt.counters().fenced_heartbeats;

  jt.recover_master();
  EXPECT_TRUE(jt.master_up());
  EXPECT_EQ(jt.master_epoch(), epoch_before + 1);

  // Heartbeats arriving before a tracker's re-registration gate still fence;
  // once the storm drains, fencing stops for good in a single-crash run.
  while (!jt.all_done()) ASSERT_TRUE(sim.step());
  const std::size_t fenced_total = jt.counters().fenced_heartbeats;
  EXPECT_GE(fenced_total, fenced_during_outage);
  EXPECT_EQ(jt.jobs_failed(), 0u);
  EXPECT_EQ(jt.counters().master_crashes, 1u);

  const exp::RunMetrics m = run.metrics();
  EXPECT_TRUE(m.audit.clean());
  EXPECT_EQ(m.fenced_heartbeats, fenced_total);
  EXPECT_EQ(m.master_crashes, 1u);
}

// --- orphan resolution -------------------------------------------------------

// Runs a scripted mid-run JobTracker outage and returns the JobTracker-level
// failover counters.
exp::RunMetrics run_jt_outage(Seconds checkpoint_interval,
                              Seconds reregistration_window,
                              std::uint64_t* orphan_digest = nullptr) {
  exp::RunConfig cfg;
  cfg.seed = 9;
  cfg.audit.enabled = true;
  cfg.job_tracker.speculative_execution = false;
  cfg.job_tracker.checkpoint_interval = checkpoint_interval;
  cfg.job_tracker.checkpoint_write_cost = 1.0;
  cfg.job_tracker.reregistration_window = reregistration_window;
  cfg.faults.crash_jobtracker_for(60.0, 90.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(busy_workload());
  run.execute();
  if (orphan_digest != nullptr) {
    *orphan_digest = run.job_tracker().orphan_resolution_digest();
  }
  return run.metrics();
}

TEST(Failover, CheckpointCoverageCommitsOrphansAmnesiaRequeues) {
  // With a live checkpoint, attempts that launched inside coverage commit
  // their fenced completions on replay — the work counts once, nothing
  // re-runs.
  const exp::RunMetrics covered = run_jt_outage(20.0, 2.0);
  EXPECT_EQ(covered.jobs_failed, 0u);
  EXPECT_GT(covered.checkpoints_written, 0u);
  EXPECT_EQ(covered.checkpoint_replays, 1u);
  EXPECT_GT(covered.fenced_completions, 0u);
  EXPECT_GT(covered.orphans_committed, 0u);
  EXPECT_TRUE(covered.audit.clean());

  // checkpoint_interval = 0 is full amnesia: the restarted master has no
  // attempt table, so every fenced report is discarded and requeued.
  const exp::RunMetrics amnesia = run_jt_outage(0.0, 2.0);
  EXPECT_EQ(amnesia.jobs_failed, 0u);
  EXPECT_EQ(amnesia.checkpoints_written, 0u);
  EXPECT_EQ(amnesia.checkpoint_replays, 0u);
  EXPECT_GT(amnesia.fenced_completions, 0u);
  EXPECT_EQ(amnesia.orphans_committed, 0u);
  EXPECT_GT(amnesia.orphans_requeued, 0u);
  EXPECT_TRUE(amnesia.audit.clean());
}

TEST(Failover, ReregistrationStormOrderIndependentResolution) {
  // The same outage resolved through a fast storm and a slow storm must
  // reach identical per-task orphan outcomes: the digest covers WHAT was
  // resolved and HOW, not the re-registration schedule.  (Speculation is off
  // in run_jt_outage — a speculative twin racing a gate could legitimately
  // flip commit/requeue.)
  std::uint64_t fast = 0, slow = 0;
  const exp::RunMetrics a = run_jt_outage(20.0, 1.0, &fast);
  const exp::RunMetrics b = run_jt_outage(20.0, 30.0, &slow);
  EXPECT_GT(a.orphans_committed + a.orphans_requeued, 0u);
  EXPECT_NE(fast, 0u);
  EXPECT_EQ(fast, slow);
  EXPECT_EQ(a.jobs_failed, 0u);
  EXPECT_EQ(b.jobs_failed, 0u);
}

// --- suspension state across failover ----------------------------------------

TEST(Failover, BlacklistPersistsAcrossFailover) {
  exp::RunConfig cfg;
  cfg.seed = 3;
  cfg.job_tracker.blacklist_threshold = 2;
  cfg.job_tracker.blacklist_duration = 1e6;
  cfg.job_tracker.blacklist_decay_window = 0.0;  // permanent for the test
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(busy_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  const MachineId victim = 2;
  // Every attempt on the victim dies halfway — it blacklists quickly.
  jt.set_attempt_fault_hook(
      [&](const mr::TaskSpec&, MachineId m) -> std::optional<double> {
        if (m == victim && !jt.tracker_blacklisted(victim)) return 0.5;
        return std::nullopt;
      });

  while (!jt.tracker_blacklisted(victim)) {
    ASSERT_TRUE(sim.step());
    ASSERT_LT(sim.now(), 3600.0) << "victim never got blacklisted";
  }

  jt.crash_master();
  const Seconds down_until = sim.now() + 30.0;
  while (sim.now() < down_until) ASSERT_TRUE(sim.step());
  jt.recover_master();

  // Blacklisting records charged faults, not the old master's opinion: it
  // survives the failover and the victim stays unschedulable.
  EXPECT_TRUE(jt.tracker_blacklisted(victim));
  EXPECT_FALSE(jt.tracker_available(victim));

  while (!jt.all_done()) ASSERT_TRUE(sim.step());
  EXPECT_EQ(jt.jobs_failed(), 0u);
}

TEST(Failover, QuarantineResetsAcrossFailover) {
  const MachineId victim = 1;
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.job_tracker.health_min_samples = 3;
  cfg.faults.slow_for(victim, 30.0, 500.0, 0.15, 0.5);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(busy_workload());

  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  while (!jt.tracker_quarantined(victim)) {
    ASSERT_TRUE(sim.step());
    ASSERT_LT(sim.now(), 3600.0) << "limping victim never got quarantined";
  }

  jt.crash_master();
  const Seconds down_until = sim.now() + 30.0;
  while (sim.now() < down_until) {
    if (!sim.step()) break;
  }
  jt.recover_master();

  // Health samples were the dead master's observations: the new master
  // starts from a clean slate and must re-convict the limper.
  EXPECT_FALSE(jt.tracker_quarantined(victim));
  EXPECT_DOUBLE_EQ(jt.node_health(victim), 1.0);

  while (!jt.all_done()) ASSERT_TRUE(sim.step());
  EXPECT_EQ(jt.jobs_failed(), 0u);
}

// --- digest neutrality -------------------------------------------------------

TEST(Failover, FaultFreeDigestImmuneToFailoverKnobs) {
  // With checkpointing disabled (the default) the failover machinery
  // schedules no events, fences nothing and consults no RNG: no knob setting
  // may move a single bit of a fault-free run's digest.
  auto digest = [](Seconds write_cost, Seconds reregistration_window) {
    exp::RunConfig cfg;
    cfg.seed = 11;
    cfg.audit.enabled = true;
    cfg.job_tracker.checkpoint_write_cost = write_cost;
    cfg.job_tracker.reregistration_window = reregistration_window;
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
    run.submit(busy_workload(2));
    run.execute();
    return run.metrics().determinism_digest;
  };

  const auto defaults = digest(5.0, 30.0);
  EXPECT_EQ(defaults, digest(123.0, 1.0));
  EXPECT_EQ(defaults, digest(0.0, 600.0));
}

// --- NameNode failover -------------------------------------------------------

TEST(NameNodeFailover, SnapshotRestoreRoundTrip) {
  hdfs::NameNode nn(Rng(17), 8, 3, {0, 0, 0, 0, 1, 1, 1, 1});
  const auto blocks_a = nn.create_file(500.0);
  const auto blocks_b = nn.create_file(300.0);
  ASSERT_FALSE(blocks_a.empty());

  const hdfs::NameNode::Snapshot snap = nn.snapshot();
  const auto locations_before = nn.locations(blocks_a[0]);
  const auto per_node_before = nn.blocks_per_node();

  // Mutate heavily: kill a holder, drain one work item, kill another node.
  nn.mark_datanode_dead(locations_before[0]);
  EXPECT_GT(nn.under_replicated_count(), 0u);
  if (const auto work = nn.next_rereplication()) {
    nn.add_replica(work->block, work->target);
  }
  nn.mark_datanode_dead(locations_before[1]);

  nn.restore(snap);
  EXPECT_EQ(nn.locations(blocks_a[0]), locations_before);
  EXPECT_EQ(nn.blocks_per_node(), per_node_before);
  EXPECT_EQ(nn.under_replicated_count(), 0u);
  EXPECT_TRUE(nn.lost_blocks().empty());
  EXPECT_FALSE(nn.mutated());
  for (MachineId m = 0; m < 8; ++m) EXPECT_TRUE(nn.datanode_alive(m));

  // rebuild_under_replication is idempotent on a healthy map.
  nn.rebuild_under_replication();
  EXPECT_EQ(nn.under_replicated_count(), 0u);
}

TEST(NameNodeFailover, DatanodeDeathDuringOutageReplaysOnRecovery) {
  // A datanode dies while the NameNode is down: the mark buffers, replays at
  // recovery against the restored block map, and re-replication restores
  // every block — no loss goes unrecorded, no block falls through.
  exp::RunConfig cfg;
  cfg.seed = 7;
  cfg.audit.enabled = true;
  cfg.topology = net::TopologySpec::oversubscribed();
  cfg.job_tracker.tracker_expiry_window = 30.0;
  cfg.faults.crash_namenode_for(40.0, 80.0);
  cfg.faults.crash_for(3, 50.0, 200.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(busy_workload());
  run.execute();

  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.master_crashes, 1u);
  EXPECT_GT(m.rereplicated_blocks, 0u);
  EXPECT_EQ(m.replication_violations, 0u);
  EXPECT_TRUE(m.audit.clean()) << "NameNode failover left audit violations";
}

// --- correlated outage determinism -------------------------------------------

TEST(Failover, CorrelatedMasterOutageIsDeterministic) {
  auto digest = [] {
    exp::RunConfig cfg;
    cfg.seed = 13;
    cfg.audit.enabled = true;
    cfg.job_tracker.checkpoint_interval = 25.0;
    cfg.job_tracker.checkpoint_write_cost = 1.0;
    cfg.job_tracker.reregistration_window = 3.0;
    cfg.faults.crash_namenode_for(55.0, 70.0);
    cfg.faults.crash_jobtracker_for(60.0, 80.0);
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
    run.submit(busy_workload());
    run.execute();
    const exp::RunMetrics m = run.metrics();
    EXPECT_EQ(m.jobs_failed, 0u);
    EXPECT_EQ(m.master_crashes, 2u);
    EXPECT_TRUE(m.audit.clean());
    return m.determinism_digest;
  };
  EXPECT_EQ(digest(), digest());
}

TEST(Failover, CapacityRebuildsQueueMapAfterFailover) {
  // The Capacity scheduler's job->queue map lives in the master's memory;
  // after a crash it must be rebuilt from the replayed job table
  // (on_master_recovered), or replayed jobs would be unroutable.
  exp::RunConfig cfg;
  cfg.seed = 11;
  cfg.audit.enabled = true;
  cfg.job_tracker.checkpoint_interval = 20.0;
  cfg.job_tracker.checkpoint_write_cost = 1.0;
  cfg.job_tracker.reregistration_window = 2.0;
  cfg.faults.crash_jobtracker_for(60.0, 90.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  run.submit(busy_workload(6));
  auto* cap = dynamic_cast<sched::CapacityScheduler*>(&run.scheduler());
  ASSERT_NE(cap, nullptr);
  EXPECT_FALSE(cap->tenant_mode());

  // Step to just past recovery (crash at 60 s, back at 150 s): the rebuilt
  // map must cover every replayed job with a valid queue.
  while (run.simulator().now() < 155.0 && !run.job_tracker().all_done()) {
    ASSERT_TRUE(run.simulator().step());
  }
  EXPECT_EQ(run.job_tracker().counters().master_crashes, 1u);
  EXPECT_TRUE(run.job_tracker().master_up());
  const auto active = run.job_tracker().active_jobs();
  EXPECT_FALSE(active.empty());
  for (const mr::JobId id : active) {
    EXPECT_LT(cap->queue_of(id), cap->num_queues());
  }

  run.execute();
  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.checkpoint_replays, 1u);
  EXPECT_TRUE(m.audit.clean());
}

TEST(Failover, TenantCapacitySurvivesFailover) {
  // Tenant mode across an outage: tenant-keyed queues are rebuilt from the
  // replayed specs and the preemption sweep keeps ticking afterwards.
  exp::RunConfig cfg;
  cfg.seed = 12;
  cfg.audit.enabled = true;
  cfg.job_tracker.checkpoint_interval = 20.0;
  cfg.job_tracker.checkpoint_write_cost = 1.0;
  cfg.job_tracker.reregistration_window = 2.0;
  cfg.faults.crash_jobtracker_for(60.0, 90.0);
  sched::TenantShareConfig share;
  share.tenants = {{0, "alpha", 2.0}, {1, "beta", 1.0}};
  cfg.tenancy = share;

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  std::vector<workload::JobSpec> jobs = busy_workload(6);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].tenant = i % 2;
  run.submit(jobs);
  auto* cap = dynamic_cast<sched::CapacityScheduler*>(&run.scheduler());
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->tenant_mode());
  run.execute();

  const exp::RunMetrics m = run.metrics();
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.master_crashes, 1u);
  EXPECT_TRUE(m.audit.clean());
  ASSERT_EQ(m.by_tenant.size(), 2u);
  EXPECT_EQ(m.tenant(0).jobs + m.tenant(1).jobs, 6u);
}

}  // namespace
}  // namespace eant
