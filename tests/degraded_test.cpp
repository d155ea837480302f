// Degraded-mode survival suite: end-to-end runs under network faults, HDFS
// datanode loss (re-replication, read failover, data-loss declaration),
// shuffle fetch-failure recovery, and the chaos-campaign harness itself.
// Complements fault_test (machine crash/restart protocol), net_test (fabric
// mechanics) and hdfs_test (NameNode bookkeeping) by driving the whole stack
// through degraded states and asserting it converges back to a clean run.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "exp/builders.h"
#include "exp/chaos.h"
#include "exp/runner.h"
#include "net/topology.h"
#include "workload/job_spec.h"

namespace eant {
namespace {

exp::RunConfig degraded_config(std::uint64_t seed = 7) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.noise = mr::NoiseConfig::typical();
  cfg.topology = net::TopologySpec::oversubscribed();
  cfg.job_tracker.tracker_expiry_window = 30.0;
  cfg.audit.enabled = true;
  return cfg;
}

exp::RunMetrics run_degraded(exp::RunConfig cfg, int jobs = 3) {
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, jobs));
  run.execute();
  return run.metrics();
}

// --- network faults ----------------------------------------------------------

TEST(DegradedNet, AccessLinkFailureAbortsFlowsAndJobsStillComplete) {
  auto cfg = degraded_config(3);
  // Hard-down one access link mid-run, long enough to strand in-flight
  // transfers; reads must fail over and fetches must retry or re-execute.
  cfg.faults.fail_link_for(5, 40.0, 300.0);
  const auto m = run_degraded(cfg);

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), 3u);
  EXPECT_GT(m.link_faults, 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_EQ(m.replication_violations, 0u);
}

TEST(DegradedNet, RemoteReadsFailOverOrRequeueWhenTheirLinkDies) {
  auto cfg = degraded_config(12);
  // Every map reads its split remotely, so reads are in flight through the
  // whole map phase when node 5's access link goes hard down: reads served
  // by node 5 resume the missing bytes from another replica, and node 5's
  // own reads, with no reachable source, are killed and re-queued.
  cfg.job_tracker.locality_override = [](const mr::TaskSpec&,
                                         cluster::MachineId) { return false; };
  cfg.faults.fail_link_for(5, 20.0, 60.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), 3u);
  // No machine crashes, so every re-sourced flow is a remote-read failover.
  EXPECT_GT(run.job_tracker().retransferred_flows(), 0u);
  EXPECT_GT(m.killed_attempts, 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

TEST(DegradedNet, LinkDegradationSlowsButNeverStrands) {
  auto cfg = degraded_config(4);
  // Degrade (not kill) several links: capacity drops, flows re-rate, nothing
  // aborts for the degradation alone.
  cfg.faults.degrade_link_for(1, 30.0, 400.0, 0.2);
  cfg.faults.degrade_link_for(9, 50.0, 400.0, 0.3);
  const auto m = run_degraded(cfg);

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_GT(m.link_faults, 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

TEST(DegradedNet, RackPartitionHealsAndRunConverges) {
  auto cfg = degraded_config(5);
  cfg.faults.partition_rack(1, 60.0, 200.0);
  const auto m = run_degraded(cfg, 4);

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), 4u);
  EXPECT_GT(m.link_faults, 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_EQ(m.replication_violations, 0u);
}

TEST(DegradedNet, TrunkDegradationStretchesCrossRackTraffic) {
  auto base_cfg = degraded_config(6);
  const auto base = run_degraded(base_cfg);

  auto cfg = degraded_config(6);
  cfg.faults.degrade_trunk_for(0, 30.0, 600.0, 0.15);
  cfg.faults.degrade_trunk_for(1, 30.0, 600.0, 0.15);
  const auto slow = run_degraded(cfg);

  EXPECT_EQ(slow.jobs_failed, 0u);
  // Choked trunks must cost wall-clock time relative to the healthy fabric.
  EXPECT_GT(slow.makespan, base.makespan);
}

// --- shuffle fetch-failure recovery ------------------------------------------

TEST(DegradedShuffle, FetchNoiseRetriesAndRecovers) {
  auto cfg = degraded_config(8);
  cfg.faults.fetch_failure_prob = 0.05;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_GT(m.fetch_failures, 0u);
  EXPECT_EQ(run.job_tracker().fetch_failures(), m.fetch_failures);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

TEST(DegradedShuffle, PersistentFetchFailureReExecutesSourceMaps) {
  auto cfg = degraded_config(9);
  // Elevated failure probability with a tight threshold: some map output is
  // bound to be declared lost and re-executed rather than retried forever,
  // yet the jobs still pull through.
  cfg.faults.fetch_failure_prob = 0.12;
  cfg.job_tracker.fetch_failure_threshold = 2;
  cfg.job_tracker.fetch_retry_backoff = 5.0;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 2));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_GT(m.fetch_failures, 0u);
  EXPECT_GT(run.job_tracker().fetch_reexecuted_maps(), 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

TEST(DegradedShuffle, FetchStormFailsJobsLoudlyInsteadOfLivelocking) {
  auto cfg = degraded_config(9);
  // A pathological regime: at a 35% per-fetch failure rate with a 2-strike
  // source threshold, shuffles essentially never complete.  The run must
  // TERMINATE with loud job failures (reducers burn attempt budget via the
  // fetch-abort limit) — the regression here was a livelock where reduce
  // attempts were killed and relaunched for free forever.
  cfg.faults.fetch_failure_prob = 0.35;
  cfg.job_tracker.fetch_failure_threshold = 2;
  cfg.job_tracker.fetch_retry_backoff = 5.0;
  cfg.time_limit = 20000.0;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 2000.0, 6, 1));
  run.execute();
  const auto m = run.metrics();

  EXPECT_GT(m.jobs_failed, 0u);
  EXPECT_GT(run.job_tracker().fetch_aborted_attempts(), 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

// --- HDFS datanode loss ------------------------------------------------------

TEST(DegradedHdfs, DatanodeLossTriggersRereplicationAndRecovers) {
  auto cfg = degraded_config(10);
  // Down far past the expiry window: the datanode is declared dead, its
  // replicas drop, and re-replication streams restore every block while the
  // machine is dark.
  cfg.faults.crash_for(2, 50.0, 600.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_GT(m.rereplicated_blocks, 0u);
  EXPECT_GT(m.rereplication_mb, 0.0);
  EXPECT_EQ(m.data_loss_events, 0u);  // replication 3, one death: no loss
  EXPECT_EQ(m.replication_violations, 0u);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
}

TEST(DegradedHdfs, LosingEveryReplicaFailsTheJobLoudly) {
  // 4 machines, replication 3: killing 3 permanently is guaranteed to lose
  // any block without a replica on the lone survivor — and with several
  // blocks per job some block always qualifies.  The job must FAIL (attempts
  // burn against the lost block) instead of silently succeeding, and each
  // lost block must be recorded as a data-loss event.
  exp::RunConfig cfg;
  cfg.seed = 11;
  cfg.noise = mr::NoiseConfig::none();
  cfg.job_tracker.tracker_expiry_window = 5.0;
  cfg.audit.enabled = true;
  cfg.faults.crash_at(0, 1.0).crash_at(1, 1.0).crash_at(2, 1.0);

  exp::Run run(exp::machines({cluster::catalog::desktop(),
                              cluster::catalog::desktop(),
                              cluster::catalog::desktop(),
                              cluster::catalog::t420()}),
               exp::SchedulerKind::kFifo, cfg);
  run.submit({exp::single_job(workload::AppKind::kWordcount, 2000.0, 2)});
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 1u);
  EXPECT_GT(m.data_loss_events, 0u);
  EXPECT_EQ(m.data_loss_events, run.job_tracker().namenode().lost_blocks().size());
  EXPECT_EQ(m.replication_violations, 0u);  // lost blocks are accounted, not violations
}

TEST(DegradedHdfs, RereplicationRestoresFullHealthBeforeRunEnds) {
  auto cfg = degraded_config(12);
  cfg.faults.crash_for(6, 40.0, 500.0);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kGrep, 3000.0, 4, 3));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  // execute() drains in-flight repair streams, so by snapshot time every
  // block is either fully replicated or still queued only because no legal
  // target exists (not the case on the 16-machine fleet with one death).
  EXPECT_EQ(run.job_tracker().rereplication_active(), 0u);
  EXPECT_EQ(m.replication_violations, 0u);
}

// --- determinism under faults ------------------------------------------------

TEST(DegradedDeterminism, IdenticalSeedsReproduceDigestsUnderChaos) {
  auto digest = [] {
    auto cfg = degraded_config(13);
    cfg.faults.crash_for(3, 50.0, 300.0);
    cfg.faults.fail_link_for(8, 70.0, 150.0);
    cfg.faults.fetch_failure_prob = 0.05;
    return run_degraded(cfg).determinism_digest;
  };
  EXPECT_EQ(digest(), digest());
}

// --- chaos harness -----------------------------------------------------------

TEST(ChaosHarness, DefaultMixesCoverTheFaultTaxonomy) {
  const auto mixes = exp::default_chaos_mixes();
  ASSERT_GE(mixes.size(), 6u);
  std::vector<std::string> names;
  for (const auto& m : mixes) names.push_back(m.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "rack-partition"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "datanode-loss"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fetch-noise"), names.end());
}

TEST(ChaosHarness, MiniCampaignSurvivesDeterministically) {
  exp::ChaosConfig cc;
  cc.seeds = {1, 2};
  cc.horizon = 700.0;
  cc.verify_determinism = true;

  // Two representative mixes keep the unit-test wall-clock modest; the full
  // matrix runs in bench/chaos_campaign.
  auto all = exp::default_chaos_mixes();
  std::vector<exp::ChaosMix> mixes;
  for (auto& m : all)
    if (m.name == "machine-crashes" || m.name == "fetch-noise")
      mixes.push_back(std::move(m));
  ASSERT_EQ(mixes.size(), 2u);

  auto base = degraded_config(1);
  const auto outcomes = exp::run_chaos_campaign(
      exp::paper_fleet(), exp::SchedulerKind::kFair, base,
      exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3), mixes, cc);

  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.survived) << o.mix << " seed " << o.seed << ": "
                            << o.metrics.audit.summary();
    EXPECT_TRUE(o.deterministic) << o.mix << " seed " << o.seed;
  }
}

}  // namespace
}  // namespace eant
