// The untraced run: the only source of the end-to-end host-time numbers.

#pragma once

#include <string>
#include <vector>

#include "outcome.h"
#include "workloads.h"

namespace eant::perfbench {

struct TimedRun {
  Outcome outcome;
  double setup_s = 0.0;  ///< median Run construction + submit
  int setups = 0;        ///< set-ups timed
  double wall_s = 0.0;   ///< Run::execute plus Run::metrics
  std::vector<std::string> failures;  ///< the correctness gate's findings
};

/// Sets the run up repeatedly, timing each set-up, then executes the last
/// one.
TimedRun run_timed(const Workload& workload);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

}  // namespace eant::perfbench
