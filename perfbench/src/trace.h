// The traced run: the same simulation as run_timed, with spans recorded
// from the benchmark's side of the library's public interfaces.
//
// Spans cover workload generation, Run construction, Run::submit, the event
// loop and Run::metrics.  The event loop is driven here, step by step, the
// way Run::execute drives it.  Each Simulator::step() is split at the
// sim::SimObserver::on_event_executed callback: before it is queue time,
// after it is event time.  Event time is charged to one class, chosen by
// which public counters moved during the event, in this precedence:
//
//   control    EAntScheduler::intervals()        (an E-Ant control tick)
//   net        any net::FabricObserver callback  (a flow started, finished
//                                                 or aborted, or a link
//                                                 changed)
//   heartbeat  JobTracker::heartbeats()
//   arrival    JobTracker::num_jobs(), or an admission rejection
//   other      none of these (task completions, detector and preemption
//              ticks, power samples)
//
// Net ranks above heartbeat because a fabric callback means a reallocation
// over every active flow, which outweighs the rest of a heartbeat that
// started a remote read; a control tick is rarer and costlier still.
//
// Two parts of an event's time are carved out before it is charged: the
// time inside Scheduler::select_job (JobTracker::select_job_wall_seconds(),
// enabled through JobTrackerConfig::measure_scheduler_time in this mode
// only) and the time spent in the auditor's SimObserver / FabricObserver
// callbacks, which the benchmark's observers forward.  The auditor's other
// taps are called from inside the library and stay in the event's class.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "outcome.h"
#include "workloads.h"

namespace eant::perfbench {

enum class EventClass { kControl, kNet, kHeartbeat, kArrival, kOther };
inline constexpr std::size_t kEventClasses = 5;

const char* event_class_name(EventClass c);

/// Host time and allocations of one span or one slice of the loop.
struct Cost {
  double seconds = 0.0;
  AllocCount allocs;
  std::uint64_t events = 0;  ///< events charged (event classes only)
};

struct TraceReport {
  // spans
  Cost gen, construct, submit, loop, finalize;
  // the loop, split
  Cost queue;
  Cost classes[kEventClasses];
  Cost select;  ///< inside Scheduler::select_job
  Cost audit;   ///< forwarded auditor observer calls
  /// loop minus every slice above: the loop's own bookkeeping plus the
  /// clock reads of the trace itself
  double unattributed_s() const;

  // sim
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;  ///< during submit and the loop
  std::uint64_t cancelled = 0;
  std::uint64_t peak_pending = 0;
  // net
  std::uint64_t flows = 0;
  std::uint64_t reallocs = 0;
  std::uint64_t rerated = 0;  ///< active flows summed over reallocations
  std::uint64_t peak_flows = 0;
  // sched / core / mapreduce
  std::uint64_t heartbeats = 0;
  std::uint64_t select_calls = 0;
  std::uint64_t control_ticks = 0;
  // hdfs
  std::uint64_t blocks = 0;
};

struct TracedRun {
  Outcome outcome;
  exp::RunMetrics metrics;
  TraceReport trace;
  std::vector<std::string> failures;  ///< the correctness gate's findings
};

TracedRun run_traced(Workload workload);

}  // namespace eant::perfbench
