// What a run computed, reduced to the benchmark's simulated metrics, plus
// the correctness gate every timed and traced run must pass.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/metrics.h"
#include "exp/runner.h"
#include "workload/job_spec.h"

namespace eant::perfbench {

/// Percentiles the tail metric may report, highest last.
inline constexpr double kTailLadder[] = {50.0, 60.0, 70.0, 75.0,
                                         80.0, 90.0, 95.0, 99.0,
                                         99.5, 99.9, 99.99};

/// Samples that must lie beyond a percentile before it may be reported.
inline constexpr std::size_t kTailMinBeyond = 10;

/// A nearest-rank percentile of a sample set.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< size of the sample set
  std::size_t beyond = 0;   ///< samples ranked above the percentile's rank
};

/// The highest percentile of kTailLadder with at least kTailMinBeyond
/// samples beyond its nearest rank; nullopt when even the median has fewer.
std::optional<Tail> tail_percentile(std::vector<double> samples);

/// Deadline accounting over everything submitted.  A deadlined job that
/// admission dropped never ran, so it is absent from RunMetrics::jobs; it
/// is found as submitted-minus-ran and counted as a miss.
struct DeadlineStats {
  std::size_t deadlined = 0;  ///< submitted jobs carrying a deadline
  std::size_t missed = 0;     ///< late, failed or dropped
  std::size_t dropped = 0;    ///< the dropped part of `missed`

  /// missed / deadlined; 0 when nothing carried a deadline.
  double miss_frac() const;
};

DeadlineStats deadline_stats(const std::vector<workload::JobSpec>& submitted,
                             const exp::RunMetrics& metrics);

/// The simulated results of one run.  Two runs of one workload and seed
/// must produce the same outcome_json(), whatever is measured around them.
struct Outcome {
  double energy_kj = 0.0;
  double makespan_s = 0.0;
  double job_time_p50_s = 0.0;
  Tail tail;
  double local_map_frac = 0.0;
  double rack_local_frac = 0.0;
  double jobs_done_frac = 0.0;
  DeadlineStats deadlines;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t dropped = 0;
  std::size_t tasks = 0;
  std::uint64_t events = 0;
  /// FNV-1a over the per-job results and the headline totals.
  std::uint64_t outputs_digest = 0;
  /// The auditor's determinism digest; 0 on unaudited runs.
  std::uint64_t audit_digest = 0;
  std::uint64_t audit_records = 0;
};

/// Reduces a finished run.  Throws InvariantError when no tail percentile
/// exists (fewer than 2 * kTailMinBeyond completed jobs).
Outcome summarize(const std::vector<workload::JobSpec>& submitted,
                  const exp::RunMetrics& metrics, exp::Run& run);

/// The correctness gate: every failed check as one line; empty = pass.
std::vector<std::string> check_run(const Outcome& outcome,
                                   const exp::RunMetrics& metrics,
                                   exp::Run& run);

/// The Outcome as JSON object members (no braces), every double printed
/// with all its digits so two Outcomes compare by text.
std::string outcome_json(const Outcome& outcome);

}  // namespace eant::perfbench
