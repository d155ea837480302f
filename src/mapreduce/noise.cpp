#include "mapreduce/noise.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace eant::mr {

NoiseConfig NoiseConfig::typical() {
  NoiseConfig c;
  c.demand_jitter_sigma = 0.12;
  c.measurement_sigma = 0.06;
  c.straggler_prob = 0.04;
  c.duration_jitter_sigma = 0.10;
  return c;
}

NoiseModel::NoiseModel(NoiseConfig config, Rng rng)
    : config_(config), rng_(rng) {
  EANT_CHECK(config.demand_jitter_sigma >= 0.0 &&
                 config.measurement_sigma >= 0.0 &&
                 config.duration_jitter_sigma >= 0.0,
             "noise sigmas must be non-negative");
  EANT_CHECK(config.straggler_prob >= 0.0 && config.straggler_prob <= 1.0,
             "straggler probability out of range");
}

namespace {

/// Range of a straggler's duration multiplier.
constexpr double kStragglerFactorMin = 1.5;
constexpr double kStragglerFactorMax = 3.0;

// Lognormal with mean exactly 1: mu = -sigma^2 / 2.
double mean_one_lognormal(Rng& rng, double sigma) {
  if (sigma <= 0.0) return 1.0;  // sigmas are validated non-negative
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

}  // namespace

double NoiseModel::demand_multiplier() {
  return mean_one_lognormal(rng_, config_.demand_jitter_sigma);
}

double NoiseModel::measured(double true_util) {
  EANT_CHECK(true_util >= 0.0, "utilisation must be non-negative");
  if (config_.measurement_sigma <= 0.0) return true_util;
  const double noisy =
      true_util * (1.0 + rng_.normal(0.0, config_.measurement_sigma));
  return std::max(0.0, noisy);
}

double NoiseModel::straggler_multiplier() {
  if (config_.straggler_prob <= 0.0) return 1.0;
  if (!rng_.bernoulli(config_.straggler_prob)) return 1.0;
  return rng_.uniform(kStragglerFactorMin, kStragglerFactorMax);
}

double NoiseModel::duration_multiplier() {
  return mean_one_lognormal(rng_, config_.duration_jitter_sigma);
}

}  // namespace eant::mr
