#include "trace.h"

#include <algorithm>
#include <chrono>  // lint-ok: wall-clock
#include <memory>

#include "common/error.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace eant::perfbench {
namespace {

using Clock = std::chrono::steady_clock;  // lint-ok: wall-clock

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Runs fn and charges its host time and allocations to `cost`.
template <typename Fn>
void timed_span(Cost& cost, Fn&& fn) {
  const AllocCount a0 = alloc_count();
  const auto t0 = Clock::now();
  fn();
  cost.seconds += seconds_between(t0, Clock::now());
  cost.allocs += alloc_count() - a0;
}

/// Takes the auditor's place as the simulator's (and fabric's) observer:
/// stamps the start of each event, counts, and forwards every call to the
/// auditor when one is attached, timing the forwarded call.
class LoopObserver final : public sim::SimObserver, public net::FabricObserver {
 public:
  LoopObserver(const net::Fabric* fabric, sim::SimObserver* audit_sim,
               net::FabricObserver* audit_fabric)
      : fabric_(fabric), audit_sim_(audit_sim), audit_fabric_(audit_fabric) {}

  void on_event_scheduled(Seconds t, sim::EventId id) override {
    ++scheduled_;
    if (audit_sim_ != nullptr)
      timed_span(audit_, [&] { audit_sim_->on_event_scheduled(t, id); });
  }

  void on_event_executed(Seconds t, sim::EventId id) override {
    event_allocs_ = alloc_count();
    event_start_ = Clock::now();
    if (audit_sim_ != nullptr)
      timed_span(audit_, [&] { audit_sim_->on_event_executed(t, id); });
  }

  // Each fabric callback is followed by one Fabric::reallocate over the
  // flows left active, so it counts one reallocation.
  void on_flow_started(net::FlowId id, net::TransferClass cls,
                       Megabytes total_mb) override {
    ++flows_;
    reallocation(fabric_->active_flows());  // includes the new flow
    if (audit_fabric_ != nullptr)
      timed_span(audit_,
                 [&] { audit_fabric_->on_flow_started(id, cls, total_mb); });
  }
  void on_flow_finished(net::FlowId id, Megabytes requested_mb,
                        Megabytes delivered_mb) override {
    reallocation(fabric_->active_flows() - 1);  // not yet erased
    if (audit_fabric_ != nullptr)
      timed_span(audit_, [&] {
        audit_fabric_->on_flow_finished(id, requested_mb, delivered_mb);
      });
  }
  void on_flow_aborted(net::FlowId id, Megabytes requested_mb,
                       Megabytes delivered_mb) override {
    reallocation(fabric_->active_flows());  // already erased
    if (audit_fabric_ != nullptr)
      timed_span(audit_, [&] {
        audit_fabric_->on_flow_aborted(id, requested_mb, delivered_mb);
      });
  }
  void on_link_state(net::LinkId link, double factor) override {
    reallocation(fabric_->active_flows());
    if (audit_fabric_ != nullptr)
      timed_span(audit_, [&] { audit_fabric_->on_link_state(link, factor); });
  }

  Clock::time_point event_start() const { return event_start_; }
  AllocCount event_allocs() const { return event_allocs_; }
  const Cost& audit() const { return audit_; }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t fabric_calls() const { return fabric_calls_; }
  std::uint64_t flows() const { return flows_; }
  std::uint64_t reallocs() const { return reallocs_; }
  std::uint64_t rerated() const { return rerated_; }
  std::uint64_t peak_flows() const { return peak_flows_; }

 private:
  void reallocation(std::size_t active) {
    ++fabric_calls_;
    peak_flows_ = std::max<std::uint64_t>(peak_flows_, active);
    if (active == 0) return;  // reallocate() returns at once
    ++reallocs_;
    rerated_ += active;
  }

  const net::Fabric* fabric_;
  sim::SimObserver* audit_sim_;
  net::FabricObserver* audit_fabric_;
  Clock::time_point event_start_{};
  AllocCount event_allocs_;
  Cost audit_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fabric_calls_ = 0;
  std::uint64_t flows_ = 0;
  std::uint64_t reallocs_ = 0;
  std::uint64_t rerated_ = 0;
  std::uint64_t peak_flows_ = 0;
};

/// The public counters an event can move, read between steps.
struct Counters {
  std::size_t intervals = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t fabric_calls = 0;
  std::size_t jobs = 0;
  std::size_t rejections = 0;
  double select_s = 0.0;
  Cost audit;
};

Counters read_counters(exp::Run& run, const LoopObserver& obs) {
  const mr::JobTracker& jt = run.job_tracker();
  Counters c;
  c.intervals = run.eant() != nullptr ? run.eant()->intervals() : 0;
  c.heartbeats = jt.heartbeats();
  c.fabric_calls = obs.fabric_calls();
  c.jobs = jt.num_jobs();
  c.rejections = jt.admission() != nullptr ? jt.admission()->total_rejections()
                                           : 0;
  c.select_s = jt.select_job_wall_seconds();
  c.audit = obs.audit();
  return c;
}

EventClass classify(const Counters& before, const Counters& after) {
  if (after.intervals != before.intervals) return EventClass::kControl;
  if (after.fabric_calls != before.fabric_calls) return EventClass::kNet;
  if (after.heartbeats != before.heartbeats) return EventClass::kHeartbeat;
  if (after.jobs != before.jobs || after.rejections != before.rejections)
    return EventClass::kArrival;
  return EventClass::kOther;
}

}  // namespace

const char* event_class_name(EventClass c) {
  switch (c) {
    case EventClass::kControl:
      return "control";
    case EventClass::kNet:
      return "net";
    case EventClass::kHeartbeat:
      return "heartbeat";
    case EventClass::kArrival:
      return "arrival";
    case EventClass::kOther:
      return "other";
  }
  return "?";
}

double TraceReport::unattributed_s() const {
  double covered = queue.seconds + select.seconds + audit.seconds;
  for (const Cost& c : classes) covered += c.seconds;
  return loop.seconds - covered;
}

TracedRun run_traced(Workload w) {
  w.config.job_tracker.measure_scheduler_time = true;
  TracedRun out;
  TraceReport& tr = out.trace;

  std::vector<workload::JobSpec> jobs;
  timed_span(tr.gen, [&] { jobs = w.generate(); });
  std::unique_ptr<exp::Run> owned;
  timed_span(tr.construct, [&] {
    owned = std::make_unique<exp::Run>(w.fleet, w.scheduler, w.config);
  });
  exp::Run& run = *owned;
  sim::Simulator& sim = run.simulator();
  mr::JobTracker& jt = run.job_tracker();
  audit::InvariantAuditor* auditor = run.auditor();
  net::Fabric* fabric = run.fabric();
  // The auditor registered itself with the fabric only when both exist.
  net::FabricObserver* fabric_auditor =
      fabric != nullptr ? static_cast<net::FabricObserver*>(auditor) : nullptr;

  LoopObserver obs(fabric, auditor, fabric_auditor);
  // Hands the observers back when this function exits, by return or by
  // exception, so the simulator never keeps a pointer to `obs`.
  struct RestoreObservers {
    sim::Simulator& sim;
    net::Fabric* fabric;
    audit::InvariantAuditor* auditor;
    net::FabricObserver* fabric_auditor;
    ~RestoreObservers() {
      sim.set_observer(auditor);
      if (fabric != nullptr) fabric->set_observer(fabric_auditor);
    }
  } restore{sim, fabric, auditor, fabric_auditor};
  sim.set_observer(&obs);
  if (fabric != nullptr) fabric->set_observer(&obs);
  const std::uint64_t live_before = sim.pending();
  timed_span(tr.submit, [&] { run.submit(jobs); });

  const Cost audit_before_loop = obs.audit();
  const std::uint64_t executed_before = sim.executed();
  const auto step = [&] {
    const Counters before = read_counters(run, obs);
    const AllocCount a0 = alloc_count();
    const auto t0 = Clock::now();
    const bool progressed = sim.step();
    const auto t2 = Clock::now();
    const AllocCount a2 = alloc_count();
    EANT_ASSERT(progressed, "event queue drained with jobs outstanding");
    const Counters after = read_counters(run, obs);

    tr.queue.seconds += seconds_between(t0, obs.event_start());
    tr.queue.allocs += obs.event_allocs() - a0;
    const double audit_s = after.audit.seconds - before.audit.seconds;
    const AllocCount audit_allocs = after.audit.allocs - before.audit.allocs;
    const double select_s = after.select_s - before.select_s;
    Cost& cls = tr.classes[static_cast<std::size_t>(classify(before, after))];
    cls.seconds += seconds_between(obs.event_start(), t2) - audit_s - select_s;
    cls.allocs += (a2 - obs.event_allocs()) - audit_allocs;
    ++cls.events;
    tr.select.seconds += select_s;
    tr.peak_pending = std::max<std::uint64_t>(tr.peak_pending, sim.pending());
  };
  // The loop Run::execute runs: step until every job resolved, then drain
  // in-flight block recovery.
  timed_span(tr.loop, [&] {
    while (!jt.all_done()) {
      EANT_CHECK(sim.now() <= w.config.time_limit,
                 "run exceeded the safety time limit without completing");
      step();
    }
    while (jt.rereplication_active() > 0) {
      EANT_CHECK(sim.now() <= w.config.time_limit,
                 "block recovery exceeded the safety time limit");
      step();
    }
  });
  tr.audit.seconds = obs.audit().seconds - audit_before_loop.seconds;
  tr.audit.allocs = obs.audit().allocs - audit_before_loop.allocs;
  tr.events = sim.executed() - executed_before;
  tr.scheduled = obs.scheduled();
  tr.cancelled = live_before + tr.scheduled - tr.events - sim.pending();

  timed_span(tr.finalize, [&] { out.metrics = run.metrics(); });

  tr.flows = obs.flows();
  tr.reallocs = obs.reallocs();
  tr.rerated = obs.rerated();
  tr.peak_flows = obs.peak_flows();
  tr.heartbeats = jt.heartbeats();
  tr.select_calls = jt.select_job_calls();
  tr.control_ticks = run.eant() != nullptr ? run.eant()->intervals() : 0;
  tr.blocks = run.namenode().num_blocks();
  out.outcome = summarize(jobs, out.metrics, run);
  out.failures = check_run(out.outcome, out.metrics, run);
  return out;
}

}  // namespace eant::perfbench
