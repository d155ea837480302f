// Arrival processes: open-loop event streams at a controlled rate.
//
// Seeded by the motivation experiments (Sec. II) — task streams submitted to
// a single machine to measure throughput-per-watt curves (Fig. 1(a)/(c)) —
// and grown into the rate profiles of the multi-tenant continuous-traffic
// subsystem (src/tenancy/): diurnal sinusoids and Markov-modulated bursts
// layered over the same Poisson machinery, emitting job arrivals over
// simulated days.

#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace eant::workload {

/// Generates arrival timestamps over a horizon.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Arrival times in [0, horizon), sorted ascending.
  virtual std::vector<Seconds> arrivals(Seconds horizon, Rng& rng) const = 0;
};

/// Poisson arrivals at `rate_per_minute` tasks/min (the x-axis of Fig. 1).
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_per_minute);

  std::vector<Seconds> arrivals(Seconds horizon, Rng& rng) const override;

  double rate_per_minute() const { return rate_per_minute_; }

 private:
  double rate_per_minute_;
};

/// Non-homogeneous Poisson arrivals with a sinusoidal day/night rate:
///
///   rate(t) = base * (1 + amplitude * sin(2*pi * (t + phase) / period))
///
/// the classic diurnal shape of production cluster traces.  Sampled by
/// thinning against the peak rate base * (1 + amplitude), so the empirical
/// rate tracks rate(t) exactly in expectation.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  /// `amplitude` in [0, 1): 0 degenerates to flat Poisson, 0.9 swings the
  /// rate between 10% and 190% of base over one `period` (default: a day).
  DiurnalArrivals(double base_per_minute, double amplitude,
                  Seconds period = 86400.0, Seconds phase = 0.0);

  std::vector<Seconds> arrivals(Seconds horizon, Rng& rng) const override;

  /// Instantaneous rate (per minute) at absolute time t.
  double rate_at(Seconds t) const;

  double base_per_minute() const { return base_per_minute_; }

 private:
  double base_per_minute_;
  double amplitude_;
  Seconds period_;
  Seconds phase_;
};

/// Markov-modulated Poisson arrivals (MMPP-2): the process alternates
/// between a calm state at `base_per_minute` and a burst state at
/// `burst_multiplier * base_per_minute`, with exponentially distributed
/// dwell times — the bursty submit pattern of interactive tenants.
class BurstyArrivals final : public ArrivalProcess {
 public:
  BurstyArrivals(double base_per_minute, double burst_multiplier,
                 Seconds mean_calm = 1800.0, Seconds mean_burst = 300.0);

  std::vector<Seconds> arrivals(Seconds horizon, Rng& rng) const override;

  /// Long-run mean rate (per minute) over the two states.
  double mean_rate_per_minute() const;

 private:
  double base_per_minute_;
  double burst_multiplier_;
  Seconds mean_calm_;
  Seconds mean_burst_;
};

}  // namespace eant::workload
