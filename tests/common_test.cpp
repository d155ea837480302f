// Unit tests for the common toolkit: RNG determinism and distributions,
// statistics (NRMSE, least squares, percentiles), table rendering, errors,
// and the closed form of repeated floating-point addition.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>

#include "common/error.h"
#include "common/fp.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace eant {
namespace {

TEST(Error, CheckThrowsPrecondition) {
  EXPECT_THROW(EANT_CHECK(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(EANT_CHECK(true, "fine"));
}

TEST(Error, AssertThrowsInvariant) {
  EXPECT_THROW(EANT_ASSERT(false, "bug"), InvariantError);
  EXPECT_NO_THROW(EANT_ASSERT(true, "fine"));
}

TEST(Error, MessageCarriesExpressionAndLocation) {
  try {
    EANT_CHECK(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("custom detail"), std::string::npos);
    EXPECT_NE(msg.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(5.0), 300.0);
  EXPECT_DOUBLE_EQ(kilojoules(2.5), 2500.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.fork(3);
  parent.uniform();  // consuming the parent must not change future forks
  Rng child2 = parent.fork(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
}

TEST(Rng, ForkStreamsAreDistinct) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
  EXPECT_THROW(rng.uniform(5.0, 2.0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(1, 4));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3, 4}));
}

TEST(Rng, NormalMeanAndSigma) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(8);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.015);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(9);
  EXPECT_THROW(rng.weighted_index({}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({-1.0, 2.0}), PreconditionError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, NrmseExactMatchIsZero) {
  EXPECT_DOUBLE_EQ(nrmse({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(Stats, NrmseKnownValue) {
  // measured mean 2, rmse = sqrt(((1)^2+0+(1)^2)/3).
  const double expect = std::sqrt(2.0 / 3.0) / 2.0;
  EXPECT_NEAR(nrmse({1, 2, 3}, {2, 2, 2}), expect, 1e-12);
}

TEST(Stats, NrmseRejectsBadInput) {
  EXPECT_THROW(nrmse({}, {}), PreconditionError);
  EXPECT_THROW(nrmse({1.0}, {1.0, 2.0}), PreconditionError);
  EXPECT_THROW(nrmse({1.0, -1.0}, {0.0, 0.0}), PreconditionError);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 73), 5.0);
  EXPECT_THROW(percentile({}, 50), PreconditionError);
  EXPECT_THROW(percentile({1.0}, 101), PreconditionError);
}

TEST(Stats, LeastSquaresRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i * 0.1);
    y.push_back(50.0 + 80.0 * i * 0.1);
  }
  const LineFit fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 50.0, 1e-9);
  EXPECT_NEAR(fit.slope, 80.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LeastSquaresNoisyFitHasReasonableR2) {
  Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const double xi = rng.uniform(0.0, 1.0);
    x.push_back(xi);
    y.push_back(40.0 + 100.0 * xi + rng.normal(0.0, 3.0));
  }
  const LineFit fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 40.0, 2.0);
  EXPECT_NEAR(fit.slope, 100.0, 4.0);
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(Stats, LeastSquaresRejectsDegenerateInput) {
  EXPECT_THROW(least_squares({1.0}, {2.0}), PreconditionError);
  EXPECT_THROW(least_squares({1.0, 1.0}, {2.0, 3.0}), PreconditionError);
  EXPECT_THROW(least_squares({1.0, 2.0}, {2.0}), PreconditionError);
}

TEST(Stats, MeanAndVarianceOf) {
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(variance_of({2, 2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(variance_of({1, 3}), 1.0);
  EXPECT_THROW(mean_of({}), PreconditionError);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 1)});
  t.add_row({"longer-name", "x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

/// The loop add_repeatedly replaces.
double add_one_by_one(double x, double inc, std::size_t k) {
  for (; k > 0; --k) x += inc;
  return x;
}

// 10^7 random (x, inc, k) against the plain loop, bit for bit.  x is zero,
// a few ulps below a power of two, an ordinary value or one at an extreme
// exponent (subnormal or near overflow); inc is zero, an exact tie (an odd
// multiple of half x's ulp), below half an ulp, comparable to x, or smaller
// by a random power of two; k is mostly below 48 (below 4 included).  One
// case in 2000 adds 0.4-0.49 x to x, at the bottom of its binade, 8192 to
// 16383 times: the closed form starts at once with a step near 2^51 ulps,
// so k * step overflows 64 bits.  A wrapped product lands back inside the
// binade only by chance, so a few cases add x/4 to a power of two 2 +
// m * 2^14 times, where it wraps to 0 exactly.
TEST(Fp, AddRepeatedlyMatchesThePlainLoopBitForBit) {
  constexpr int kCases = 10'000'000;
  std::uint64_t state = 20261019;
  const auto next = [&state] {  // splitmix64: cheaper than Rng at 10^7 draws
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const auto below = [&next](std::uint64_t n) {
    return static_cast<int>(next() % n);
  };
  const auto unit = [&next] {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1p-53;
  };
  // The spacing of doubles just above x.
  const auto ulp = [](double x) {
    return std::nextafter(x, std::numeric_limits<double>::infinity()) - x;
  };

  const auto same = [](double x, double inc, std::size_t k) {
    const double want = add_one_by_one(x, inc, k);
    const double got = add_repeatedly(x, inc, k);
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want))
      return true;
    ADD_FAILURE() << std::hexfloat << "x " << x << " inc " << inc << " k "
                  << k << ": got " << got << ", the loop gives " << want;
    return false;
  };

  std::uint64_t ties = 0, tiny = 0, short_runs = 0, long_runs = 0,
                below_power = 0, extreme = 0, additions = 0;
  for (int i = 0; i < kCases; ++i) {
    double x = 0.0;
    switch (below(8)) {
      case 0:
        break;  // zero
      case 1: {
        const int e = below(41) - 20;
        x = std::ldexp(1.0, e) - std::ldexp(1 + below(64), e - 53);
        ++below_power;
        break;
      }
      case 2: {
        x = below(2) == 0 ? std::ldexp(1.0 + unit(), below(120) - 1074 - 52)
                          : std::ldexp(1.0 + unit(), 1023 - below(4));
        ++extreme;
        break;
      }
      default:
        x = std::ldexp(1.0 + unit(), below(81) - 40);
    }
    const double u = ulp(x);
    double inc = 0.0;
    switch (below(6)) {
      case 0:
        break;  // zero
      case 1:
        inc = std::ldexp(static_cast<double>(2 * (next() >> (44 + below(20))) +
                                             1),
                         std::ilogb(u) - 1);
        ++ties;
        break;
      case 2:
        inc = 0.5 * u * unit();
        ++tiny;
        break;
      case 3:
        inc = x * (0.05 + 2.0 * unit());
        break;
      default:
        inc = std::ldexp(x + u, -below(61)) * (1.0 + unit());
    }
    std::size_t k = static_cast<std::size_t>(below(48));
    if (below(2000) == 0) {
      x = std::ldexp(1.0 + 0x1p-20 * unit(), below(81) - 40);
      inc = x * (0.4 + 0.09 * unit());
      k = 8192 + static_cast<std::size_t>(below(8192));
      ++long_runs;
    }
    if (k < 4) ++short_runs;
    additions += k;
    if (!same(x, inc, k)) return;
  }
  for (const int e : {-3, 0, 7}) {
    for (std::size_t m = 1; m <= 3; ++m) {
      const double x = std::ldexp(1.0, e);
      if (!same(x, x / 4, 2 + (m << 14)) || !same(x, x / 4, 3 + (m << 14)))
        return;
      additions += 5 + (m << 15);
    }
  }
  std::printf("compared %d cases and 18 wrapping ones (%llu additions): "
              "%llu exact ties, %llu below half an ulp, %llu below a power "
              "of two, %llu at extreme exponents, %llu with k < 4, %llu with "
              "k >= 8192\n",
              kCases, static_cast<unsigned long long>(additions),
              static_cast<unsigned long long>(ties),
              static_cast<unsigned long long>(tiny),
              static_cast<unsigned long long>(below_power),
              static_cast<unsigned long long>(extreme),
              static_cast<unsigned long long>(short_runs),
              static_cast<unsigned long long>(long_runs));
}

}  // namespace
}  // namespace eant
