#include "workload/arrival.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace eant::workload {

PoissonArrivals::PoissonArrivals(double rate_per_minute)
    : rate_per_minute_(rate_per_minute) {
  EANT_CHECK(rate_per_minute > 0.0, "arrival rate must be positive");
}

std::vector<Seconds> PoissonArrivals::arrivals(Seconds horizon,
                                               Rng& rng) const {
  EANT_CHECK(horizon > 0.0, "horizon must be positive");
  std::vector<Seconds> times;
  const double rate_per_second = rate_per_minute_ / kSecondsPerMinute;
  Seconds t = rng.exponential(rate_per_second);
  while (t < horizon) {
    times.push_back(t);
    t += rng.exponential(rate_per_second);
  }
  return times;
}

DiurnalArrivals::DiurnalArrivals(double base_per_minute, double amplitude,
                                 Seconds period, Seconds phase)
    : base_per_minute_(base_per_minute),
      amplitude_(amplitude),
      period_(period),
      phase_(phase) {
  EANT_CHECK(base_per_minute > 0.0, "arrival rate must be positive");
  EANT_CHECK(amplitude >= 0.0 && amplitude < 1.0,
             "diurnal amplitude must be in [0, 1)");
  EANT_CHECK(period > 0.0, "diurnal period must be positive");
}

double DiurnalArrivals::rate_at(Seconds t) const {
  const double angle = 2.0 * std::numbers::pi * (t + phase_) / period_;
  return base_per_minute_ * (1.0 + amplitude_ * std::sin(angle));
}

std::vector<Seconds> DiurnalArrivals::arrivals(Seconds horizon,
                                               Rng& rng) const {
  EANT_CHECK(horizon > 0.0, "horizon must be positive");
  // Thinning (Lewis-Shedler): draw candidates from a homogeneous Poisson
  // process at the peak rate, keep each with probability rate(t) / peak.
  const double peak_per_second =
      base_per_minute_ * (1.0 + amplitude_) / kSecondsPerMinute;
  std::vector<Seconds> times;
  Seconds t = rng.exponential(peak_per_second);
  while (t < horizon) {
    const double keep = rate_at(t) / (base_per_minute_ * (1.0 + amplitude_));
    if (rng.bernoulli(keep)) times.push_back(t);
    t += rng.exponential(peak_per_second);
  }
  return times;
}

BurstyArrivals::BurstyArrivals(double base_per_minute, double burst_multiplier,
                               Seconds mean_calm, Seconds mean_burst)
    : base_per_minute_(base_per_minute),
      burst_multiplier_(burst_multiplier),
      mean_calm_(mean_calm),
      mean_burst_(mean_burst) {
  EANT_CHECK(base_per_minute > 0.0, "arrival rate must be positive");
  EANT_CHECK(burst_multiplier >= 1.0, "burst multiplier must be >= 1");
  EANT_CHECK(mean_calm > 0.0 && mean_burst > 0.0,
             "state dwell times must be positive");
}

double BurstyArrivals::mean_rate_per_minute() const {
  // Stationary state probabilities are proportional to the dwell times.
  const double p_burst = mean_burst_ / (mean_calm_ + mean_burst_);
  return base_per_minute_ * ((1.0 - p_burst) + p_burst * burst_multiplier_);
}

std::vector<Seconds> BurstyArrivals::arrivals(Seconds horizon,
                                              Rng& rng) const {
  EANT_CHECK(horizon > 0.0, "horizon must be positive");
  std::vector<Seconds> times;
  Seconds segment_start = 0.0;
  bool burst = false;  // start calm; the first burst arrives stochastically
  while (segment_start < horizon) {
    const Seconds dwell =
        rng.exponential(1.0 / (burst ? mean_burst_ : mean_calm_));
    const Seconds segment_end = std::min(segment_start + dwell, horizon);
    const double rate_per_second =
        base_per_minute_ * (burst ? burst_multiplier_ : 1.0) /
        kSecondsPerMinute;
    Seconds t = segment_start + rng.exponential(rate_per_second);
    while (t < segment_end) {
      times.push_back(t);
      t += rng.exponential(rate_per_second);
    }
    segment_start = segment_start + dwell;
    burst = !burst;
  }
  return times;
}

}  // namespace eant::workload
