// Host-speed probe: a fixed kernel owned by the benchmark, timed in every
// process next to the measured run.  It never changes with the simulator,
// so the ratio of a run's time to the probe's time cancels the host's speed,
// which on a shared host drifts by up to a factor of two within minutes.

#pragma once

#include <cstdint>

namespace eant::perfbench {

struct ProbeResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< must equal kProbeChecksum
};

/// The checksum the probe kernel must produce; anything else means the
/// kernel ran wrong and its time means nothing.
inline constexpr std::uint64_t kProbeChecksum = 0xfafb59fc9a117aa4ULL;

/// Runs the kernel once: a small discrete-event loop built like the
/// simulator's own (a binary heap of entries holding std::function
/// callbacks, copied out on pop; a hash set of live ids; an ordered map the
/// callbacks update) over a fixed pseudo-random sequence.
ProbeResult run_probe();

}  // namespace eant::perfbench
