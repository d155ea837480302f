// Golden outputs: a table of audited cells whose determinism digests and
// headline metrics are pinned.  Together the cells reach every task-attempt
// lifecycle mechanism of the JobTracker and TaskTracker — node loss and fast
// restart, fetch-failure re-execution, rack partitions, master failover with
// orphan resolution, corruption and fail-slow re-rates, tenant preemption
// under admission control, submissions buffered across a master outage and
// replayed through admission, job failure, the fault-free scalar path, the
// MSD workload's Table III mix under E-Ant, Fair and Tarazu on the scalar
// network and under Fair on the oversubscribed fabric, and legacy Capacity's
// fixed-fraction queues on that fabric — so a change meant to preserve
// behaviour must leave every row unchanged.
//
// Digests compare exactly; metrics to 1e-9 relative.  On a mismatch the test
// prints the actual row in table syntax: an intended change in behaviour is a
// reviewed edit of kGolden, never a silent one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/digest.h"
#include "common/rng.h"
#include "exp/builders.h"
#include "exp/chaos.h"
#include "exp/runner.h"
#include "net/topology.h"
#include "sched/capacity.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"
#include "workload/apps.h"
#include "workload/msd.h"

namespace eant {
namespace {

struct GoldenRow {
  const char* cell;
  std::uint64_t digest;
  double makespan;
  double energy;
  double local_map_frac;
  std::size_t completed;
  std::size_t failed;
  std::size_t dropped;
  double wasted_task_seconds;
  std::uint64_t counters;
};

// Columns: cell, determinism digest, makespan (s), total energy (J), local-map
// fraction, jobs completed / failed / dropped, wasted task-seconds, and the
// counters digest (counters_digest below).
// clang-format off
constexpr GoldenRow kGolden[] = {
    {"fabric/fault-free", 0x6a7cb8be03482243ull, 283.49763601827027, 397929.42109364492, 0.88652482269503541, 3, 0, 0, 0, 0x74ff59e7c16e7ccaull},
    {"chaos/machine-crashes", 0x291b7a2701b3652dull, 258.62245744575858, 378744.47927224275, 0.89171974522292996, 3, 0, 0, 406.78649889899953, 0x62fd36a6a51ad09cull},
    {"chaos/rack-partition", 0x68a8469a3cdf3511ull, 313.84432391590434, 501026.75241335505, 0.75971731448763247, 3, 0, 0, 1415.0453436702971, 0x7e89f4adc71a492bull},
    {"chaos/jobtracker-crash", 0x737674c4e7da19ceull, 277.00398991337045, 397939.45917822438, 0.93617021276595747, 3, 0, 0, 438, 0x6c442bcfcf141eaeull},
    {"chaos/corrupt-and-limp", 0x0fe69b54e36f6df8ull, 213.89607839750931, 322348.09678025206, 0.90780141843971629, 3, 0, 0, 8.8107700415993513, 0xc04b5103481d86c3ull},
    {"failover-and-loss", 0x9583ccb569b4eb1dull, 504.31854930439999, 682653.02149274759, 0.78260869565217395, 3, 0, 0, 3470.5851839196216, 0x449eb42ce51fe1c7ull},
    {"tenant/capacity-admission", 0xd6381f18c244b014ull, 4311.2274804285735, 9998443.8041535839, 0.53094462540716614, 1335, 0, 15, 65.443905341280924, 0xf3f5e1807b56be54ull},
    {"tenant/admission-outage", 0x30b441b308f3bfe6ull, 4393.2813104036513, 9402537.7824573144, 0.51770657672849918, 1205, 0, 145, 2269.6642924301941, 0x635b027a129e1f35ull},
    {"all-jobs-fail", 0x79cab2843f1c52c9ull, 53.112625519225531, 71687.250988241605, 0, 0, 2, 0, 400.51059013265666, 0xe83b8ede234def8eull},
    {"scalar/eant", 0xf2dbdc0a6f0a624dull, 241.4328295673071, 325609.87092289096, 0.91489361702127658, 3, 0, 0, 0, 0xd519d2e35999a355ull},
    {"fabric/flat", 0xf67edd4d95261ea6ull, 241.4328295673071, 321624.38889733097, 0.891156462585034, 3, 0, 0, 217.75033434583281, 0xab01a1c32a0c5f6aull},
    {"late/fail-slow", 0xa82c154ddf19ffc9ull, 268.21899668592044, 389488.9850223384, 0.92907801418439717, 3, 0, 0, 0, 0xf35df6176edb75d5ull},
    {"msd/eant", 0x7b195af30fba70c7ull, 5052.5904894979813, 8386135.7927103024, 0.92062170413544264, 87, 0, 0, 0, 0x5fade39b7a452ce4ull},
    {"msd/fair", 0xed864d37f9320ce0ull, 5012.80049890799, 8394561.0797310919, 0.90285872883708018, 87, 0, 0, 0, 0xbdb704a5da0f64eeull},
    {"msd/tarazu", 0x362933df1e0d13f8ull, 5013.1421390011328, 8417647.1848347615, 0.90452400777130171, 87, 0, 0, 0, 0x7debf69d0a65b204ull},
    {"msd/fair-oversub", 0x13eedc9525fa3cbbull, 1460.5668091163961, 2660659.1540409867, 0.89548954895489552, 30, 0, 0, 0, 0xe02c564132dcd119ull},
    {"capacity/oversub", 0xcb2c1f4054502965ull, 349.96685409480938, 582250.47697332792, 0.93971631205673756, 6, 0, 0, 0, 0x74ff59e7c16e7ccaull},
};
// clang-format on

struct Cell {
  std::string name;
  exp::RunMetrics metrics;
};

/// The chaos campaign's quick configuration (bench/chaos_campaign "quick"):
/// E-Ant on the oversubscribed fabric with the bench's scaled expiry window.
exp::RunConfig chaos_base() {
  exp::RunConfig cfg;
  cfg.seed = 42;
  cfg.noise = mr::NoiseConfig::typical();
  cfg.eant.control_interval = 120.0;
  cfg.eant.negative_feedback = false;
  cfg.topology = net::TopologySpec::oversubscribed();
  cfg.job_tracker.tracker_expiry_window = 30.0;
  cfg.audit.enabled = true;
  return cfg;
}

exp::RunMetrics run(const exp::ClusterBuilder& fleet, exp::SchedulerKind kind,
                    const exp::RunConfig& cfg,
                    const std::vector<workload::JobSpec>& jobs) {
  exp::Run r(fleet, kind, cfg);
  r.submit(jobs);
  r.execute();
  return r.metrics();
}

std::vector<Cell> run_cells() {
  std::vector<Cell> cells;

  // The fault-free run doubles as chaos_campaign's probe: scripted faults
  // land at fractions of its makespan.
  const exp::RunConfig base = chaos_base();
  const auto batch = exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3);
  exp::RunMetrics probe =
      run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, base, batch);
  const Seconds horizon = probe.makespan;
  cells.push_back({"fabric/fault-free", std::move(probe)});

  // Machine loss and fast restart, fetch-failure re-execution behind a rack
  // partition, master failover with checkpoint replay, and corruption on a
  // limping machine (seed 1, as in the CI smoke run).
  std::vector<exp::ChaosMix> mixes;
  for (exp::ChaosMix& mix : exp::default_chaos_mixes()) {
    if (mix.name == "machine-crashes" || mix.name == "rack-partition" ||
        mix.name == "jobtracker-crash" || mix.name == "corrupt-and-limp") {
      mixes.push_back(std::move(mix));
    }
  }
  exp::ChaosConfig cc;
  cc.seeds = {1};
  cc.horizon = horizon;
  cc.verify_determinism = false;  // the pinned digest is the stronger check
  for (exp::ChaosOutcome& o :
       exp::run_chaos_campaign(exp::paper_fleet(), exp::SchedulerKind::kEAnt,
                               base, batch, mixes, cc)) {
    cells.push_back({"chaos/" + o.mix, std::move(o.metrics)});
  }

  // Master failover without checkpoints (amnesia), compounded with transient
  // attempt failures and two node losses: node 0 dies while the master is
  // down, after fencing completions of its own, and node 13 dies while the
  // lost blocks re-replicate.
  {
    exp::RunConfig cfg = base;
    cfg.seed = 3;
    cfg.faults.crash_jobtracker_for(0.25 * horizon, 0.35 * horizon);
    cfg.faults.task_failure_prob = 0.05;
    cfg.faults.crash_for(0, 0.58 * horizon, 0.45 * horizon);
    cfg.faults.crash_for(13, 0.72 * horizon, 0.30 * horizon);
    cells.push_back({"failover-and-loss", run(exp::paper_fleet(),
                                              exp::SchedulerKind::kEAnt, cfg,
                                              batch)});
  }

  // Tenant-mode Capacity past the fleet's knee: admission rejects and
  // drops, and the share sweep preempts over-share tenants' attempts.
  {
    auto mix = tenancy::presets::three_tenant_mix(3600.0, 50.0);
    exp::RunConfig cfg;
    cfg.seed = 7;
    cfg.audit.enabled = true;
    sched::TenantShareConfig shares;
    cfg.job_tracker.admission.enabled = true;
    for (const auto& t : mix.tenants) {
      shares.tenants.push_back(sched::TenantQueue{
          t.profile.tenant, t.profile.name, t.profile.weight});
      cfg.job_tracker.admission.tenants.push_back(
          mr::AdmissionTenantPolicy{t.profile.tenant, t.profile.weight});
    }
    cfg.tenancy = shares;
    const tenancy::TrafficGenerator gen(std::move(mix));
    Rng rng(7);
    const std::vector<workload::JobSpec> jobs = gen.generate(rng);
    cells.push_back({"tenant/capacity-admission",
                     run(exp::paper_fleet(), exp::SchedulerKind::kCapacity,
                         cfg, jobs)});

    // The same traffic across a ten-minute JobTracker outage: fresh
    // arrivals and backoff retries that land while the master is down wait
    // in the submission buffer and replay through admission at recovery.
    cfg.faults.crash_jobtracker_for(900.0, 600.0);
    cells.push_back({"tenant/admission-outage",
                     run(exp::paper_fleet(), exp::SchedulerKind::kCapacity,
                         cfg, jobs)});
  }

  // Near-certain attempt death: every job burns its attempt budget.
  {
    exp::RunConfig cfg;
    cfg.seed = 5;
    cfg.audit.enabled = true;
    cfg.job_tracker.blacklist_threshold = 0;
    cfg.faults.task_failure_prob = 0.999;
    cells.push_back(
        {"all-jobs-fail",
         run(exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg,
             exp::job_batch(workload::AppKind::kWordcount, 64.0 * 4, 1, 2))});
  }

  // Fault-free E-Ant on the scalar network model.
  {
    exp::RunConfig cfg = chaos_base();
    cfg.topology.reset();
    cells.push_back({"scalar/eant", run(exp::paper_fleet(),
                                        exp::SchedulerKind::kEAnt, cfg, batch)});
  }

  // The same batch over the flat fabric, with one node lost and restarted:
  // no link can bind, so the fabric never has a utilisation peak to track.
  {
    exp::RunConfig cfg = chaos_base();
    cfg.topology = net::TopologySpec::flat();
    cfg.faults.crash_for(1, 0.40 * horizon, 0.30 * horizon);
    cells.push_back({"fabric/flat", run(exp::paper_fleet(),
                                        exp::SchedulerKind::kEAnt, cfg, batch)});
  }

  // LATE's straggler speculation under fail-slow (bench/fig_failslow quick,
  // two limpers): progress-ranked candidates, the per-node clone cap, and
  // machines 1 and 5 limping from 20% of Fair's fault-free makespan.
  {
    exp::RunConfig cfg;
    cfg.seed = 42;
    cfg.noise = mr::NoiseConfig::typical();
    cfg.audit.enabled = true;
    cfg.job_tracker.speculative_progress_ranking = true;
    cfg.job_tracker.max_speculative_per_node = 2;
    const Seconds fair_makespan =
        run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg, batch)
            .makespan;
    for (cluster::MachineId v : {1, 5}) {
      cfg.faults.slow_for(v, 0.2 * fair_makespan, 50.0 * fair_makespan, 0.3,
                          0.5);
    }
    cells.push_back({"late/fail-slow", run(exp::paper_fleet(),
                                           exp::SchedulerKind::kLate, cfg,
                                           batch)});
  }

  // fig8_comparison's E-Ant cell: the canonical 87-job MSD trace of
  // bench/bench_common.h on the scalar network, the one cell whose jobs
  // come from MsdGenerator's Table III mix.
  workload::MsdConfig wl;
  wl.num_jobs = 87;
  wl.input_scale = 1.0 / 200.0;
  wl.mean_interarrival = 60.0;
  Rng rng(42);
  std::vector<workload::JobSpec> msd_jobs =
      workload::MsdGenerator(wl).generate(rng);
  exp::RunConfig msd_cfg;
  msd_cfg.seed = 42;
  msd_cfg.noise = mr::NoiseConfig::typical();
  msd_cfg.eant.control_interval = 120.0;
  msd_cfg.eant.negative_feedback = false;
  msd_cfg.audit.enabled = true;
  cells.push_back({"msd/eant", run(exp::paper_fleet(),
                                   exp::SchedulerKind::kEAnt, msd_cfg,
                                   msd_jobs)});

  // fig8_comparison's two baselines on the same trace: Fair (no locality
  // delay, as make_scheduler builds it) and Tarazu's capability quota.
  cells.push_back({"msd/fair", run(exp::paper_fleet(),
                                   exp::SchedulerKind::kFair, msd_cfg,
                                   msd_jobs)});
  cells.push_back({"msd/tarazu", run(exp::paper_fleet(),
                                     exp::SchedulerKind::kTarazu, msd_cfg,
                                     msd_jobs)});

  // perfbench's fair-oversub-msd cell: Fair on the first 30 jobs of the
  // same trace over the oversubscribed fabric, where MSD's job sizes drive
  // the flow reallocations.
  {
    exp::RunConfig cfg = msd_cfg;
    cfg.topology = net::TopologySpec::oversubscribed();
    msd_jobs.resize(30);  // the trace is sorted by submit time
    cells.push_back({"msd/fair-oversub", run(exp::paper_fleet(),
                                             exp::SchedulerKind::kFair, cfg,
                                             msd_jobs)});
  }

  // fig6b_topology_locality's legacy Capacity cell (two jobs per app): the
  // three fixed-fraction queues over the oversubscribed fabric.
  {
    exp::RunConfig cfg = msd_cfg;
    cfg.topology = net::TopologySpec::oversubscribed();
    std::vector<workload::JobSpec> jobs;
    for (workload::AppKind app : workload::all_apps()) {
      const auto batch = exp::job_batch(app, 3000.0, 8, 2);
      jobs.insert(jobs.end(), batch.begin(), batch.end());
    }
    cells.push_back({"capacity/oversub", run(exp::paper_fleet(),
                                             exp::SchedulerKind::kCapacity,
                                             cfg, jobs)});
  }
  return cells;
}

std::size_t completed_jobs(const exp::RunMetrics& m) {
  std::size_t n = 0;
  for (const auto& j : m.jobs) n += j.failed ? 0 : 1;
  return n;
}

/// FNV-1a over the JobTracker counters a run reports, read by name in
/// RunMetrics' declaration order (integers as uint64_t, doubles by bit
/// pattern).  The determinism digest hashes the event stream, not these
/// values, so only this column catches a counter copied from the wrong
/// source.
std::uint64_t counters_digest(const exp::RunMetrics& m) {
  audit::Fnv1a h;
  const auto mix = [&h](const auto&... values) {
    const auto one = [&h](auto v) {
      if constexpr (std::is_floating_point_v<decltype(v)>) {
        h.mix(static_cast<double>(v));
      } else {
        h.mix(static_cast<std::uint64_t>(v));
      }
    };
    (one(values), ...);
  };
  mix(m.preempted_attempts, m.speculative_launches, m.killed_attempts,
      m.failed_attempts, m.lost_map_outputs, m.wasted_task_seconds,
      m.fetch_failures, m.fetch_reexecuted_maps, m.rereplicated_blocks,
      m.rereplication_mb, m.data_loss_events, m.quarantine_episodes,
      m.corruptions_injected, m.corruptions_detected, m.corruptions_repaired,
      m.corruptions_lost, m.corruptions_latent, m.corrupt_read_failovers,
      m.shuffle_corruptions, m.task_output_corruptions, m.scrubbed_mb,
      m.scrub_passes, m.master_crashes, m.checkpoints_written,
      m.checkpoint_replays, m.fenced_heartbeats, m.fenced_completions,
      m.orphans_committed, m.orphans_requeued);
  return h.value();
}

bool near(double actual, double expected) {
  return std::abs(actual - expected) <=
         1e-9 * std::max(std::abs(expected), 1e-300);
}

std::string row_of(const Cell& c) {
  const exp::RunMetrics& m = c.metrics;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", 0x%016" PRIx64 "ull, %.17g, %.17g, %.17g, %zu, "
                "%zu, %zu, %.17g, 0x%016" PRIx64 "ull},",
                c.name.c_str(), m.determinism_digest, m.makespan,
                m.total_energy, m.locality_fraction(), completed_jobs(m),
                m.jobs_failed, m.jobs_dropped, m.wasted_task_seconds,
                counters_digest(m));
  return buf;
}

bool matches(const GoldenRow& g, const exp::RunMetrics& m) {
  return g.digest == m.determinism_digest && near(m.makespan, g.makespan) &&
         near(m.total_energy, g.energy) &&
         near(m.locality_fraction(), g.local_map_frac) &&
         completed_jobs(m) == g.completed && m.jobs_failed == g.failed &&
         m.jobs_dropped == g.dropped &&
         near(m.wasted_task_seconds, g.wasted_task_seconds) &&
         g.counters == counters_digest(m);
}

TEST(Golden, AuditedCellsReproduceTheirRecordedRows) {
  const std::vector<Cell> cells = run_cells();
  EXPECT_EQ(cells.size(), std::size(kGolden))
      << "one golden row per cell, in cell order";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    EXPECT_TRUE(c.metrics.audited);
    EXPECT_TRUE(c.metrics.audit.clean())
        << c.name << ": " << c.metrics.audit.summary();
    const bool ok = i < std::size(kGolden) && c.name == kGolden[i].cell &&
                    matches(kGolden[i], c.metrics);
    EXPECT_TRUE(ok) << "golden mismatch; actual row:\n" << row_of(c);
  }

  // The cells must keep reaching every lifecycle path the table guards.
  auto reached = [&](auto counter) {
    for (const Cell& c : cells) {
      if (counter(c.metrics) > 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(reached([](const auto& m) { return m.lost_map_outputs; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.fetch_reexecuted_maps; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.orphans_requeued; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.task_output_corruptions; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.preempted_attempts; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.jobs_failed; }));
  EXPECT_TRUE(reached([](const auto& m) { return m.speculative_launches; }));
}

}  // namespace
}  // namespace eant
