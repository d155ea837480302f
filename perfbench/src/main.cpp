// One benchmark process: runs one workload once, checks it, and prints one
// JSON line.  perfbench_timed reports the end-to-end host times;
// perfbench_traced (built with PERFBENCH_TRACED) reports the per-layer
// split instead.  run.py spawns these and aggregates them.
//
// Usage: perfbench_timed|perfbench_traced <workload> <seed>
// Exits 1 when the correctness gate fails, 2 on a usage error.

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>

#include "exp/cli.h"
#include "probe.h"
#include "timed.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "trace.h"
#endif

using namespace eant;
using namespace eant::perfbench;

namespace {

int report_failures(const std::vector<std::string>& failures) {
  for (const auto& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}

#ifdef PERFBENCH_TRACED
double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string layers_json(const TracedRun& r) {
  const TraceReport& t = r.trace;
  const exp::RunMetrics& m = r.metrics;
  const auto cls = [&](EventClass c) {
    return t.classes[static_cast<std::size_t>(c)].seconds;
  };
  AllocCount total;
  for (const Cost* span : {&t.gen, &t.construct, &t.submit, &t.loop,
                           &t.finalize}) {
    total += span->allocs;
  }
  const auto per = [](double num, std::uint64_t den, double scale) {
    return den == 0 ? 0.0 : num * scale / static_cast<double>(den);
  };
  char buf[4096];
  std::snprintf(
      buf, sizeof buf,
      "\"sim.events\": %" PRIu64 ", \"sim.scheduled\": %" PRIu64
      ", \"sim.cancelled\": %" PRIu64 ", \"sim.peak_pending\": %" PRIu64
      ", \"sim.queue_s\": %.9g, \"sim.queue_allocs\": %" PRIu64
      ", \"sim.ns_per_event\": %.9g, "
      "\"net.flows\": %" PRIu64 ", \"net.reallocs\": %" PRIu64
      ", \"net.rerated\": %" PRIu64 ", \"net.peak_flows\": %" PRIu64
      ", \"net.self_s\": %.9g, "
      "\"sched.select_calls\": %" PRIu64 ", \"sched.select_s\": %.9g"
      ", \"sched.select_us\": %.9g, \"core.control_ticks\": %" PRIu64
      ", \"core.control_s\": %.9g, "
      "\"mapreduce.heartbeats\": %" PRIu64
      ", \"mapreduce.heartbeat_self_s\": %.9g"
      ", \"mapreduce.arrival_s\": %.9g, \"mapreduce.other_s\": %.9g"
      ", \"mapreduce.tasks\": %zu, \"mapreduce.rejections\": %zu"
      ", \"mapreduce.retries\": %zu, \"mapreduce.dropped\": %zu"
      ", \"mapreduce.preempted\": %zu, "
      "\"hdfs.blocks\": %" PRIu64 ", \"hdfs.rack_local_frac\": %.9g, "
      "\"audit.records\": %" PRIu64 ", \"audit.observer_s\": %.9g"
      ", \"audit.violations\": %zu, "
      "\"workload.gen_s\": %.9g, \"workload.jobs\": %zu"
      ", \"exp.construct_s\": %.9g, \"exp.submit_s\": %.9g"
      ", \"exp.finalize_s\": %.9g, "
      "\"host.allocs\": %" PRIu64 ", \"host.alloc_mib\": %.9g"
      ", \"trace.loop_s\": %.9g, \"trace.unattributed_s\": %.9g",
      t.events, t.scheduled, t.cancelled, t.peak_pending, t.queue.seconds,
      t.queue.allocs.allocs, per(t.loop.seconds, t.events, 1e9), t.flows,
      t.reallocs, t.rerated, t.peak_flows, cls(EventClass::kNet),
      t.select_calls, t.select.seconds,
      per(t.select.seconds, t.heartbeats, 1e6), t.control_ticks,
      cls(EventClass::kControl), t.heartbeats, cls(EventClass::kHeartbeat),
      cls(EventClass::kArrival), cls(EventClass::kOther), m.total_tasks,
      m.jobs_rejected, m.admission_retries, m.jobs_dropped,
      m.preempted_attempts, t.blocks, r.outcome.rack_local_frac,
      m.audit.digest_records, t.audit.seconds, m.audit.total_violations(),
      t.gen.seconds, r.outcome.submitted, t.construct.seconds,
      t.submit.seconds, t.finalize.seconds, total.allocs, mib(total.bytes),
      t.loop.seconds, t.unattributed_s());
  return buf;
}

/// Per-span and per-event-class host time, events and allocations, for the
/// human-readable breakdown.
std::string breakdown_json(const TraceReport& t) {
  std::string out;
  const auto add = [&](const char* name, const Cost& c) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"s\": %.9g, \"events\": %" PRIu64
                  ", \"allocs\": %" PRIu64 ", \"bytes\": %" PRIu64 "}",
                  out.empty() ? "" : ", ", name, c.seconds, c.events,
                  c.allocs.allocs, c.allocs.bytes);
    out += buf;
  };
  add("span.gen", t.gen);
  add("span.construct", t.construct);
  add("span.submit", t.submit);
  add("span.loop", t.loop);
  add("span.finalize", t.finalize);
  add("loop.queue", t.queue);
  for (std::size_t i = 0; i < kEventClasses; ++i) {
    const std::string name =
        std::string("loop.") + event_class_name(static_cast<EventClass>(i));
    add(name.c_str(), t.classes[i]);
  }
  add("loop.select_job", t.select);
  add("loop.audit_observer", t.audit);
  return out;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  exp::Cli cli(argc, argv,
               "perfbench_timed|perfbench_traced <workload> <seed>");
  const std::string name = cli.string_arg("workload", "");
  const auto seed =
      static_cast<std::uint64_t>(cli.int_arg("seed", 42, 1, 1L << 40));
  cli.done();

  try {
    const Workload workload = make_workload(name, seed);
    // The probe brackets the run, so its mean tracks the host's speed over
    // the same interval.
    const ProbeResult before = run_probe();
#ifdef PERFBENCH_TRACED
    const TracedRun r = run_traced(workload);
#else
    const TimedRun r = run_timed(workload);
#endif
    const ProbeResult after = run_probe();
    const double probe_s = 0.5 * (before.seconds + after.seconds);
    std::vector<std::string> failures = r.failures;
    for (const ProbeResult& p : {before, after}) {
      if (p.checksum != kProbeChecksum) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "probe checksum %016" PRIx64,
                      p.checksum);
        failures.push_back(buf);
      }
    }
#ifdef PERFBENCH_TRACED
    std::printf("{\"mode\": \"traced\", \"workload\": \"%s\", "
                "\"seed\": %" PRIu64 ", \"probe_s\": %.9g, "
                "\"peak_rss_mib\": %.9g, \"outcome\": {%s}, "
                "\"layers\": {%s}, \"breakdown\": {%s}}\n",
                name.c_str(), seed, probe_s, peak_rss_mib(),
                outcome_json(r.outcome).c_str(), layers_json(r).c_str(),
                breakdown_json(r.trace).c_str());
#else
    std::printf("{\"mode\": \"timed\", \"workload\": \"%s\", "
                "\"seed\": %" PRIu64 ", \"probe_s\": %.9g, "
                "\"setup_s\": %.9g, \"setups\": %d, \"wall_s\": %.9g, "
                "\"peak_rss_mib\": %.9g, \"outcome\": {%s}}\n",
                name.c_str(), seed, probe_s, r.setup_s, r.setups, r.wall_s,
                peak_rss_mib(), outcome_json(r.outcome).c_str());
#endif
    return report_failures(failures);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    return 1;
  }
}
