// Golden outputs: a table of audited cells whose determinism digests and
// headline metrics are pinned.  Together the cells reach every task-attempt
// lifecycle mechanism of the JobTracker and TaskTracker — node loss and fast
// restart, fetch-failure re-execution, rack partitions, master failover with
// orphan resolution, corruption and fail-slow re-rates, tenant preemption
// under admission control, job failure, and the fault-free scalar path — so
// a change meant to preserve behaviour must leave every row unchanged.
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
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exp/builders.h"
#include "exp/chaos.h"
#include "exp/runner.h"
#include "net/topology.h"
#include "sched/capacity.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"

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
};

// Columns: cell, determinism digest, makespan (s), total energy (J), local-map
// fraction, jobs completed / failed / dropped, wasted task-seconds.
// clang-format off
constexpr GoldenRow kGolden[] = {
    {"fabric/fault-free", 0xd72dd41e0ec478d9ull, 283.49763601827027, 397929.42109364492, 0.88652482269503541, 3, 0, 0, 0},
    {"chaos/machine-crashes", 0x89f07e2300924e32ull, 258.62245744575858, 378744.47927224275, 0.89171974522292996, 3, 0, 0, 406.78649889899953},
    {"chaos/rack-partition", 0x8faa725b08a4dabaull, 313.84432391590434, 501026.75241335505, 0.75971731448763247, 3, 0, 0, 1415.0453436702971},
    {"chaos/jobtracker-crash", 0x54530e3b3bd8c917ull, 277.00398991337045, 397939.45917822438, 0.93617021276595747, 3, 0, 0, 438},
    {"chaos/corrupt-and-limp", 0x28df3708a4ffdef7ull, 213.89607839750931, 322348.09678025206, 0.90780141843971629, 3, 0, 0, 8.8107700415993513},
    {"failover-and-loss", 0x57b8b6507cd1fd94ull, 504.31854930439999, 682653.02149274759, 0.78260869565217395, 3, 0, 0, 3470.5851839196216},
    {"tenant/capacity-admission", 0xd6381f18c244b014ull, 4311.2274804285735, 9998443.8041535839, 0.53094462540716614, 1335, 0, 15, 65.443905341280924},
    {"all-jobs-fail", 0x79cab2843f1c52c9ull, 53.112625519225531, 71687.250988241605, 0, 0, 2, 0, 400.51059013265666},
    {"scalar/eant", 0xf2dbdc0a6f0a624dull, 241.4328295673071, 325609.87092289096, 0.91489361702127658, 3, 0, 0, 0},
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
    cells.push_back({"tenant/capacity-admission",
                     run(exp::paper_fleet(), exp::SchedulerKind::kCapacity,
                         cfg, gen.generate(rng))});
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
  return cells;
}

std::size_t completed_jobs(const exp::RunMetrics& m) {
  std::size_t n = 0;
  for (const auto& j : m.jobs) n += j.failed ? 0 : 1;
  return n;
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
                "%zu, %zu, %.17g},",
                c.name.c_str(), m.determinism_digest, m.makespan,
                m.total_energy, m.locality_fraction(), completed_jobs(m),
                m.jobs_failed, m.jobs_dropped, m.wasted_task_seconds);
  return buf;
}

bool matches(const GoldenRow& g, const exp::RunMetrics& m) {
  return g.digest == m.determinism_digest && near(m.makespan, g.makespan) &&
         near(m.total_energy, g.energy) &&
         near(m.locality_fraction(), g.local_map_frac) &&
         completed_jobs(m) == g.completed && m.jobs_failed == g.failed &&
         m.jobs_dropped == g.dropped &&
         near(m.wasted_task_seconds, g.wasted_task_seconds);
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
}

}  // namespace
}  // namespace eant
