// perf_smoke — the simulator-throughput baseline for the scale arc.
//
// Runs a homogeneous Terasort batch at three fleet sizes under E-Ant and
// Capacity on the scalar network, and at two sizes over the oversubscribed
// fabric (the path fig6b, fig_corruption and the chaos mixes run), and
// emits BENCH_perf_smoke.json: simulated events per wall-clock second,
// wall-clock seconds, peak RSS, and the scheduler-work attribution (time
// inside Scheduler::select_job, per processed heartbeat) against node and
// task count.  Peak RSS is the process's high-water mark so far, so it
// never falls from one row to the next.  Future scale/speed PRs diff their
// numbers against this file's committed trajectory; the absolute values are
// machine-dependent, the shape (events/sec should stay roughly flat as the
// fleet grows, and select_job time per heartbeat should not blow up with
// job count) is not.
//
// It also times the thread-per-seed sweep driver (exp/sweep.h): an 8-seed
// audited sweep of a 16-node Terasort batch at 4 workers vs serial, emitted
// as seeds/min — the wall-clock win every multi-seed bench (chaos_campaign,
// continuous_traffic) inherits.  On a single-core runner the speedup is ~1;
// the field still tracks driver overhead.
//
// Usage: perf_smoke [out.json]   (default BENCH_perf_smoke.json)

#include <sys/resource.h>

#include <chrono>  // lint-ok: wall-clock
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "exp/builders.h"
#include "exp/cli.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "net/topology.h"

using namespace eant;

namespace {

/// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Row {
  std::string scheduler;
  std::string network;  ///< "scalar" or "oversubscribed"
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  std::uint64_t events = 0;
  Seconds sim_makespan = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t select_job_calls = 0;
  double select_job_wall_s = 0.0;
  double select_us_per_heartbeat = 0.0;
};

Row measure(exp::SchedulerKind kind, std::size_t nodes, bool oversubscribed) {
  // Work scales with the fleet: jobs proportional to nodes so every size
  // runs at comparable utilisation and the per-event cost is comparable.
  const int jobs = static_cast<int>(nodes / 4);
  exp::RunConfig cfg;
  cfg.seed = 7;
  cfg.job_tracker.measure_scheduler_time = true;
  if (oversubscribed) cfg.topology = net::TopologySpec::oversubscribed();
  exp::Run run(exp::homogeneous(cluster::catalog::xeon_e5(), nodes), kind,
               cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 4000.0, 8, jobs));

  const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  run.execute();
  const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock

  Row r;
  r.scheduler = exp::scheduler_kind_name(kind);
  r.network = oversubscribed ? "oversubscribed" : "scalar";
  r.nodes = nodes;
  r.jobs = static_cast<std::size_t>(jobs);
  const exp::RunMetrics m = run.metrics();
  r.tasks = m.total_tasks;
  r.events = run.simulator().executed();
  r.sim_makespan = m.makespan;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
  r.peak_rss_mib = peak_rss_mib();
  const mr::JobTracker& jt = run.job_tracker();
  r.heartbeats = jt.heartbeats();
  r.select_job_calls = jt.select_job_calls();
  r.select_job_wall_s = jt.select_job_wall_seconds();
  r.select_us_per_heartbeat =
      r.heartbeats > 0 ? r.select_job_wall_s * 1e6 /
                             static_cast<double>(r.heartbeats)
                       : 0.0;
  return r;
}

struct SweepRow {
  std::size_t seeds = 0;
  unsigned threads = 0;
  double wall_parallel_s = 0.0;
  double wall_serial_s = 0.0;
  double seeds_per_min = 0.0;  ///< at `threads` workers
  double speedup = 0.0;        ///< serial wall / parallel wall
};

SweepRow measure_sweep() {
  constexpr std::size_t kSeeds = 8;
  constexpr unsigned kThreads = 4;
  exp::RunConfig cfg;
  cfg.audit.enabled = true;  // digest on: the production sweep configuration
  const auto jobs = exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3);
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), 16);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) seeds.push_back(s);

  exp::SweepConfig sweep;
  SweepRow r;
  r.seeds = kSeeds;
  r.threads = kThreads;

  sweep.threads = kThreads;
  auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt, cfg, jobs, seeds, sweep);
  auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  r.wall_parallel_s = std::chrono::duration<double>(t1 - t0).count();

  sweep.threads = 1;
  t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt, cfg, jobs, seeds, sweep);
  t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  r.wall_serial_s = std::chrono::duration<double>(t1 - t0).count();

  r.seeds_per_min = r.wall_parallel_s > 0.0
                        ? 60.0 * static_cast<double>(kSeeds) / r.wall_parallel_s
                        : 0.0;
  r.speedup =
      r.wall_parallel_s > 0.0 ? r.wall_serial_s / r.wall_parallel_s : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Cli cli(argc, argv, "perf_smoke [out.json]");
  const std::string out_path = cli.string_arg("out", "BENCH_perf_smoke.json");
  cli.done();

  std::vector<Row> rows;
  const auto add_row = [&](exp::SchedulerKind kind, std::size_t nodes,
                           bool oversubscribed) {
    rows.push_back(measure(kind, nodes, oversubscribed));
    const Row& r = rows.back();
    std::printf(
        "%-8s %-14s nodes=%3zu jobs=%3zu tasks=%6zu events=%9llu "
        "wall=%6.2fs events/s=%9.0f rss=%6.1f MiB select/hb=%6.2fus\n",
        r.scheduler.c_str(), r.network.c_str(), r.nodes, r.jobs, r.tasks,
        static_cast<unsigned long long>(r.events), r.wall_seconds,
        r.events_per_sec, r.peak_rss_mib, r.select_us_per_heartbeat);
  };
  const exp::SchedulerKind kinds[] = {exp::SchedulerKind::kEAnt,
                                      exp::SchedulerKind::kCapacity};
  for (const exp::SchedulerKind kind : kinds) {
    for (std::size_t nodes : {16, 64, 256}) add_row(kind, nodes, false);
  }
  for (const exp::SchedulerKind kind : kinds) {
    for (std::size_t nodes : {16, 64}) add_row(kind, nodes, true);
  }

  const SweepRow sweep = measure_sweep();
  std::printf(
      "sweep    seeds=%3zu threads=%u wall=%6.2fs serial=%6.2fs "
      "seeds/min=%6.1f speedup=%4.2fx\n",
      sweep.seeds, sweep.threads, sweep.wall_parallel_s, sweep.wall_serial_s,
      sweep.seeds_per_min, sweep.speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf_smoke\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"scheduler\": \"%s\", \"network\": \"%s\", "
                 "\"nodes\": %zu, \"jobs\": %zu, "
                 "\"tasks\": %zu, "
                 "\"events\": %llu, \"sim_makespan_s\": %.3f, "
                 "\"wall_s\": %.3f, \"events_per_s\": %.0f, "
                 "\"peak_rss_mib\": %.1f, "
                 "\"heartbeats\": %llu, \"select_job_calls\": %llu, "
                 "\"select_job_wall_s\": %.4f, "
                 "\"select_us_per_heartbeat\": %.3f}%s\n",
                 r.scheduler.c_str(), r.network.c_str(), r.nodes, r.jobs,
                 r.tasks, static_cast<unsigned long long>(r.events),
                 r.sim_makespan,
                 r.wall_seconds, r.events_per_sec, r.peak_rss_mib,
                 static_cast<unsigned long long>(r.heartbeats),
                 static_cast<unsigned long long>(r.select_job_calls),
                 r.select_job_wall_s, r.select_us_per_heartbeat,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"sweep\": {\"seeds\": %zu, \"threads\": %u, "
               "\"wall_s\": %.3f, \"serial_wall_s\": %.3f, "
               "\"seeds_per_min_4t\": %.2f, \"speedup\": %.2f}\n",
               sweep.seeds, sweep.threads, sweep.wall_parallel_s,
               sweep.wall_serial_s, sweep.seeds_per_min, sweep.speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
