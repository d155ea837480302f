// perf_smoke — the simulator-throughput baseline for the scale arc.
//
// Runs a homogeneous Terasort batch at four fleet sizes (16 to 1024 nodes)
// under E-Ant and Capacity on the scalar network, at three sizes (16 to 256
// nodes) over the oversubscribed fabric (the path fig6b, fig_corruption and
// the chaos mixes run) and at two over the flat fabric (one rack, unlimited
// links: the scalar model's timing through the fabric), and emits
// BENCH_perf_smoke.json: simulated events per wall-clock second, wall-clock
// seconds, peak RSS, the events scheduled and cancelled besides those
// executed, the fabric's water-fillings, and the scheduler-work attribution
// (time inside Scheduler::select_job, per processed heartbeat) against node
// and task count.  Peak RSS is the process's high-water mark so far, so it
// never falls from one row to the next.  Future scale/speed PRs diff their
// numbers against this file's committed trajectory; the absolute values are
// machine-dependent, the shape (events/sec should stay roughly flat as the
// fleet grows, and select_job time per heartbeat should not blow up with
// job count) is not.
//
// The event counts are exact, so they gate on any runner: perf_smoke exits
// 1 when a row schedules more than kMaxScheduledPerExecuted events per
// event it executes, the churn a fabric that rescheduled every flow's
// completion at each reallocation produced.
//
// It also times the thread-per-seed sweep driver (exp/sweep.h): a 4-seed
// audited sweep of a Terasort batch at 4 workers vs serial, emitted as
// seeds/min — the wall-clock win every multi-seed bench (chaos_campaign,
// continuous_traffic) inherits.  Each seed is sized to run for over a
// second, so the speedup measures the runs rather than thread start-up.
// The two sweeps run as three back-to-back pairs, alternating which goes
// first, and the speedup is the median of the per-pair ratios with their
// min and max: on a shared host one pair alone moved the ratio from 2.4x to
// 3.9x on the same source.  On a single-core runner the speedup is ~1.
//
// Usage: perf_smoke [out.json]   (default BENCH_perf_smoke.json)

#include <sys/resource.h>

#include <chrono>  // lint-ok: wall-clock
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "common/stats.h"
#include "exp/builders.h"
#include "exp/cli.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "net/topology.h"
#include "sim/simulator.h"

using namespace eant;

namespace {

/// The most events a row may schedule per event it executes.  Periodic
/// re-arms count as scheduled, so a run that cancels nothing sits at 1; the
/// rows measured 1.00-1.03 on the scalar network and 1.25-1.57 over the
/// fabrics (flat at 64 nodes the highest), against 51.6 for perfbench's
/// fair-oversub-msd when the fabric rescheduled every flow's completion.
constexpr double kMaxScheduledPerExecuted = 2.0;

enum class Network { kScalar, kOversubscribed, kFlat };

const char* network_name(Network network) {
  switch (network) {
    case Network::kScalar:
      return "scalar";
    case Network::kOversubscribed:
      return "oversubscribed";
    case Network::kFlat:
      return "flat";
  }
  return "?";
}

/// Counts scheduled events, periodic re-arms included, and forwards every
/// callback to the observer it displaced (the auditor, when EANT_AUDIT is
/// set), so an audited run keeps its audit.
class EventCounter final : public sim::SimObserver {
 public:
  void forward_to(sim::SimObserver* next) { next_ = next; }
  std::uint64_t scheduled() const { return scheduled_; }

  void on_event_scheduled(Seconds t, sim::EventId id) override {
    ++scheduled_;
    if (next_ != nullptr) next_->on_event_scheduled(t, id);
  }
  void on_event_executed(Seconds t, sim::EventId id) override {
    if (next_ != nullptr) next_->on_event_executed(t, id);
  }

 private:
  sim::SimObserver* next_ = nullptr;
  std::uint64_t scheduled_ = 0;
};

/// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Row {
  std::string scheduler;
  std::string network;  ///< "scalar", "oversubscribed" or "flat"
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  std::uint64_t events = 0;     ///< executed
  std::uint64_t scheduled = 0;  ///< periodic re-arms included
  /// pending at submit + scheduled - executed - pending at the end
  std::uint64_t cancelled = 0;
  std::uint64_t fillings = 0;  ///< the fabric's water-fillings; 0 on scalar
  Seconds sim_makespan = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t select_job_calls = 0;
  double select_job_wall_s = 0.0;
  double select_us_per_heartbeat = 0.0;
};

Row measure(exp::SchedulerKind kind, std::size_t nodes, Network network) {
  // Work scales with the fleet: jobs proportional to nodes so every size
  // runs at comparable utilisation and the per-event cost is comparable.
  const int jobs = static_cast<int>(nodes / 4);
  exp::RunConfig cfg;
  cfg.seed = 7;
  cfg.job_tracker.measure_scheduler_time = true;
  if (network == Network::kOversubscribed)
    cfg.topology = net::TopologySpec::oversubscribed();
  if (network == Network::kFlat) cfg.topology = net::TopologySpec::flat();
  EventCounter counter;  // declared first: the run's simulator points at it
  exp::Run run(exp::homogeneous(cluster::catalog::xeon_e5(), nodes), kind,
               cfg);
  sim::Simulator& sim = run.simulator();
  counter.forward_to(run.auditor());
  sim.set_observer(&counter);
  const std::uint64_t pending_at_submit = sim.pending();
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 4000.0, 8, jobs));

  const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  run.execute();
  const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock

  Row r;
  r.scheduler = exp::scheduler_kind_name(kind);
  r.network = network_name(network);
  r.nodes = nodes;
  r.jobs = static_cast<std::size_t>(jobs);
  const exp::RunMetrics m = run.metrics();
  r.tasks = m.total_tasks;
  r.events = sim.executed();
  r.scheduled = counter.scheduled();
  r.cancelled = pending_at_submit + r.scheduled - r.events - sim.pending();
  r.fillings = m.network.fillings;
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
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::size_t seeds = 0;
  unsigned threads = 0;
  std::size_t pairs = 0;         ///< parallel/serial pairs timed
  double wall_parallel_s = 0.0;  ///< median over the pairs
  double wall_serial_s = 0.0;    ///< median over the pairs
  double seeds_per_min = 0.0;    ///< at `threads` workers, median wall
  double speedup = 0.0;      ///< median per-pair serial / parallel wall
  double speedup_min = 0.0;  ///< lowest per-pair ratio
  double speedup_max = 0.0;  ///< highest per-pair ratio
};

SweepRow measure_sweep() {
  constexpr std::size_t kSeeds = 4;
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kPairs = 3;
  // The scalar rows' shape at 1024 nodes: one audited seed runs for about
  // 1.1-2 s serially in Release on a 4-vCPU Xeon host, so thread start-up
  // is noise in the speedup.
  constexpr std::size_t kNodes = 1024;
  constexpr std::size_t kJobs = kNodes / 4;
  exp::RunConfig cfg;
  cfg.audit.enabled = true;  // digest on: the production sweep configuration
  const auto jobs = exp::job_batch(workload::AppKind::kTerasort, 4000.0, 8,
                                   static_cast<int>(kJobs));
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), kNodes);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) seeds.push_back(s);

  const auto time_sweep = [&](unsigned threads) {
    exp::SweepConfig sweep;
    sweep.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
    exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt, cfg, jobs, seeds,
                     sweep);
    const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
    return std::chrono::duration<double>(t1 - t0).count();
  };
  std::vector<double> parallel, serial, ratio;
  for (std::size_t p = 0; p < kPairs; ++p) {
    // Alternate the order, so a host that speeds up or slows down during
    // the pairs does not favour one side.
    double par = 0.0;
    double ser = 0.0;
    if (p % 2 == 0) {
      par = time_sweep(kThreads);
      ser = time_sweep(1);
    } else {
      ser = time_sweep(1);
      par = time_sweep(kThreads);
    }
    parallel.push_back(par);
    serial.push_back(ser);
    ratio.push_back(par > 0.0 ? ser / par : 0.0);
  }

  SweepRow r;
  r.nodes = kNodes;
  r.jobs = kJobs;
  r.seeds = kSeeds;
  r.threads = kThreads;
  r.pairs = kPairs;
  r.wall_parallel_s = percentile(parallel, 50.0);
  r.wall_serial_s = percentile(serial, 50.0);
  r.seeds_per_min = r.wall_parallel_s > 0.0
                        ? 60.0 * static_cast<double>(kSeeds) / r.wall_parallel_s
                        : 0.0;
  r.speedup = percentile(ratio, 50.0);
  r.speedup_min = percentile(ratio, 0.0);
  r.speedup_max = percentile(ratio, 100.0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Cli cli(argc, argv, "perf_smoke [out.json]");
  const std::string out_path = cli.string_arg("out", "BENCH_perf_smoke.json");
  cli.done();

  std::vector<Row> rows;
  const auto add_row = [&](exp::SchedulerKind kind, std::size_t nodes,
                           Network network) {
    rows.push_back(measure(kind, nodes, network));
    const Row& r = rows.back();
    std::printf(
        "%-8s %-14s nodes=%4zu jobs=%3zu tasks=%6zu events=%9llu "
        "scheduled=%9llu cancelled=%7llu fillings=%7llu wall=%6.2fs "
        "events/s=%9.0f rss=%6.1f MiB select/hb=%6.2fus\n",
        r.scheduler.c_str(), r.network.c_str(), r.nodes, r.jobs, r.tasks,
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.scheduled),
        static_cast<unsigned long long>(r.cancelled),
        static_cast<unsigned long long>(r.fillings), r.wall_seconds,
        r.events_per_sec, r.peak_rss_mib, r.select_us_per_heartbeat);
  };
  const exp::SchedulerKind kinds[] = {exp::SchedulerKind::kEAnt,
                                      exp::SchedulerKind::kCapacity};
  for (const exp::SchedulerKind kind : kinds) {
    for (std::size_t nodes : {16, 64, 256, 1024})
      add_row(kind, nodes, Network::kScalar);
  }
  for (const exp::SchedulerKind kind : kinds) {
    for (std::size_t nodes : {16, 64, 256})
      add_row(kind, nodes, Network::kOversubscribed);
  }
  for (const exp::SchedulerKind kind : kinds) {
    for (std::size_t nodes : {16, 64}) add_row(kind, nodes, Network::kFlat);
  }

  const SweepRow sweep = measure_sweep();
  std::printf(
      "sweep    nodes=%zu jobs=%zu seeds=%3zu threads=%u pairs=%zu "
      "wall=%6.2fs serial=%6.2fs seeds/min=%6.1f speedup=%4.2fx "
      "(%4.2f-%4.2f)\n",
      sweep.nodes, sweep.jobs, sweep.seeds, sweep.threads, sweep.pairs,
      sweep.wall_parallel_s, sweep.wall_serial_s, sweep.seeds_per_min,
      sweep.speedup, sweep.speedup_min, sweep.speedup_max);

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
                 "\"events\": %llu, \"scheduled\": %llu, "
                 "\"cancelled\": %llu, \"fillings\": %llu, "
                 "\"sim_makespan_s\": %.3f, "
                 "\"wall_s\": %.3f, \"events_per_s\": %.0f, "
                 "\"peak_rss_mib\": %.1f, "
                 "\"heartbeats\": %llu, \"select_job_calls\": %llu, "
                 "\"select_job_wall_s\": %.4f, "
                 "\"select_us_per_heartbeat\": %.3f}%s\n",
                 r.scheduler.c_str(), r.network.c_str(), r.nodes, r.jobs,
                 r.tasks, static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.scheduled),
                 static_cast<unsigned long long>(r.cancelled),
                 static_cast<unsigned long long>(r.fillings), r.sim_makespan,
                 r.wall_seconds, r.events_per_sec, r.peak_rss_mib,
                 static_cast<unsigned long long>(r.heartbeats),
                 static_cast<unsigned long long>(r.select_job_calls),
                 r.select_job_wall_s, r.select_us_per_heartbeat,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"sweep\": {\"nodes\": %zu, \"jobs\": %zu, "
               "\"seeds\": %zu, \"threads\": %u, \"pairs\": %zu, "
               "\"wall_s\": %.3f, \"serial_wall_s\": %.3f, "
               "\"seeds_per_min_4t\": %.2f, \"speedup\": %.2f, "
               "\"speedup_min\": %.2f, \"speedup_max\": %.2f}\n",
               sweep.nodes, sweep.jobs, sweep.seeds, sweep.threads,
               sweep.pairs, sweep.wall_parallel_s, sweep.wall_serial_s,
               sweep.seeds_per_min, sweep.speedup, sweep.speedup_min,
               sweep.speedup_max);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  int status = 0;
  for (const Row& r : rows) {
    if (static_cast<double>(r.scheduled) <=
        kMaxScheduledPerExecuted * static_cast<double>(r.events))
      continue;
    std::fprintf(stderr,
                 "event churn: %s %s nodes=%zu scheduled %llu events for "
                 "%llu executed (limit %.1fx)\n",
                 r.scheduler.c_str(), r.network.c_str(), r.nodes,
                 static_cast<unsigned long long>(r.scheduled),
                 static_cast<unsigned long long>(r.events),
                 kMaxScheduledPerExecuted);
    status = 1;
  }
  return status;
}
