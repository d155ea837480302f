// System-noise injection (Sec. IV-D of the paper).
//
// The paper defines system noise as "transient and anomalous behavior of
// certain tasks ... attributed to data skew, network congestion, etc.",
// manifesting as CPU-utilisation fluctuation and straggling tasks (Fig. 7).
// NoiseModel injects exactly those effects:
//   * demand jitter  — a task's true CPU demand is redrawn every heartbeat
//                      window (mean-one lognormal);
//   * measurement error — the utilisation the TaskTracker *records* differs
//                      from the true value (sampling noise);
//   * stragglers     — occasional duration blow-ups;
//   * duration jitter / data skew — per-task runtime variation.

#pragma once

#include "common/rng.h"

namespace eant::mr {

/// Noise intensity knobs; all default to zero (a noiseless, exact system).
struct NoiseConfig {
  double demand_jitter_sigma = 0.0;    ///< lognormal sigma of true-demand jitter
  double measurement_sigma = 0.0;      ///< relative error of recorded util
  double straggler_prob = 0.0;         ///< per-task probability of straggling
  double duration_jitter_sigma = 0.0;  ///< lognormal sigma of per-task runtime

  /// No noise at all — deterministic durations and exact measurements.
  static NoiseConfig none() { return NoiseConfig{}; }

  /// The noise level used by the paper-reproduction experiments: enough
  /// fluctuation to produce the Fig. 7 scatter and the Fig. 4 NRMSE band.
  static NoiseConfig typical();
};

/// Draws noise realisations from a dedicated RNG stream.
class NoiseModel {
 public:
  NoiseModel(NoiseConfig config, Rng rng);

  const NoiseConfig& config() const { return config_; }

  /// Mean-one multiplier applied to a task's true CPU demand each window.
  double demand_multiplier();

  /// The recorded (measured) value of a true utilisation; clamped to >= 0.
  double measured(double true_util);

  /// Duration multiplier for stragglers: 1.0 normally, a uniform draw in
  /// [1.5, 3.0] with probability straggler_prob.
  double straggler_multiplier();

  /// Mean-one lognormal multiplier for per-task runtime (data skew etc.).
  double duration_multiplier();

 private:
  NoiseConfig config_;
  Rng rng_;
};

}  // namespace eant::mr
