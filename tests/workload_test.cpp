// Unit tests for the workload module: PUMA application profiles (Fig. 1(d)
// characterisation), the MSD generator (Table III), arrival processes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "workload/apps.h"
#include "workload/arrival.h"
#include "workload/job_spec.h"
#include "workload/msd.h"

namespace eant::workload {
namespace {

TEST(Apps, NamesAndLookup) {
  EXPECT_EQ(app_name(AppKind::kWordcount), "Wordcount");
  EXPECT_EQ(app_name(AppKind::kGrep), "Grep");
  EXPECT_EQ(app_name(AppKind::kTerasort), "Terasort");
  EXPECT_EQ(all_apps().size(), 3u);
  for (AppKind k : all_apps()) {
    EXPECT_EQ(profile_for(k).kind, k);
    EXPECT_EQ(profile_for(k).name, app_name(k));
  }
}

TEST(Apps, WordcountIsCpuBoundOthersAreIoBound) {
  // Paper Fig. 1(d): Wordcount is map/CPU-intensive; Grep and Terasort are
  // IO-intensive.  Use a 40 MB/s reference disk (desktop-class).
  const double wc = map_cpu_fraction(profile_for(AppKind::kWordcount), 40.0);
  const double gr = map_cpu_fraction(profile_for(AppKind::kGrep), 40.0);
  const double ts = map_cpu_fraction(profile_for(AppKind::kTerasort), 40.0);
  EXPECT_GT(wc, 0.8);
  EXPECT_LT(gr, 0.75);
  EXPECT_LT(ts, 0.75);
  EXPECT_GT(wc, gr);
  EXPECT_GT(wc, ts);
}

TEST(Apps, TerasortShufflesItsWholeInput) {
  EXPECT_DOUBLE_EQ(profile_for(AppKind::kTerasort).map_output_ratio, 1.0);
  EXPECT_LT(profile_for(AppKind::kWordcount).map_output_ratio, 0.2);
}

TEST(Apps, ProfilesArePositive) {
  for (AppKind k : all_apps()) {
    const AppProfile& p = profile_for(k);
    EXPECT_GT(p.map_cpu_s_per_mb, 0.0);
    EXPECT_GT(p.map_io_mb_per_mb, 0.0);
    EXPECT_GT(p.map_cpu_demand, 0.0);
    EXPECT_GT(p.map_output_ratio, 0.0);
    EXPECT_GT(p.reduce_cpu_s_per_mb, 0.0);
    EXPECT_GT(p.reduce_io_mb_per_mb, 0.0);
    EXPECT_GT(p.reduce_cpu_demand, 0.0);
  }
}

TEST(JobSpec, DisplayAndClassKey) {
  JobSpec s;
  s.app = AppKind::kGrep;
  s.size_class = SizeClass::kMedium;
  EXPECT_EQ(s.display_name(), "Grep-M");
  EXPECT_EQ(s.class_key(), "Grep-M");
  EXPECT_EQ(size_class_suffix(SizeClass::kSmall), "S");
  EXPECT_EQ(size_class_suffix(SizeClass::kLarge), "L");
}

TEST(Msd, GeneratesConfiguredJobCount) {
  MsdGenerator gen(MsdConfig{});
  Rng rng(1);
  const auto jobs = gen.generate(rng);
  EXPECT_EQ(jobs.size(), 87u);
}

TEST(Msd, ClassSharesFollowTableThree) {
  MsdConfig cfg;
  cfg.num_jobs = 7000;
  MsdGenerator gen(cfg);
  Rng rng(2);
  const auto jobs = gen.generate(rng);
  std::map<SizeClass, int> counts;
  for (const auto& j : jobs) ++counts[j.size_class];
  // Renormalised Table III shares: 4/7, 2/7, 1/7.
  EXPECT_NEAR(counts[SizeClass::kSmall] / 7000.0, 4.0 / 7.0, 0.03);
  EXPECT_NEAR(counts[SizeClass::kMedium] / 7000.0, 2.0 / 7.0, 0.03);
  EXPECT_NEAR(counts[SizeClass::kLarge] / 7000.0, 1.0 / 7.0, 0.03);
}

TEST(Msd, InputSizesRespectScaledClassRanges) {
  MsdConfig cfg;
  cfg.num_jobs = 500;
  MsdGenerator gen(cfg);
  Rng rng(3);
  for (const auto& j : gen.generate(rng)) {
    const double lo = msd_class(j.size_class).min_mb;
    const double hi = msd_class(j.size_class).max_mb;
    EXPECT_GE(j.input_mb, std::max(kHdfsBlockMb, lo * cfg.input_scale) - 1e-9);
    EXPECT_LE(j.input_mb, hi * cfg.input_scale + 1e-9);
    EXPECT_GE(j.num_reduces, 1);
  }
}

TEST(Msd, LargeJobsAreLargerThanSmallJobs) {
  MsdConfig cfg;
  cfg.num_jobs = 2000;
  MsdGenerator gen(cfg);
  Rng rng(4);
  double small_max = 0.0, large_min = 1e18;
  for (const auto& j : gen.generate(rng)) {
    if (j.size_class == SizeClass::kSmall) {
      small_max = std::max(small_max, j.input_mb);
    }
    if (j.size_class == SizeClass::kLarge) {
      large_min = std::min(large_min, j.input_mb);
    }
  }
  EXPECT_LT(small_max, large_min * 1.01);  // class ranges are disjoint
}

TEST(Msd, SubmitTimesAreSortedPoisson) {
  MsdConfig cfg;
  cfg.num_jobs = 300;
  cfg.mean_interarrival = 60.0;
  MsdGenerator gen(cfg);
  Rng rng(5);
  const auto jobs = gen.generate(rng);
  EXPECT_DOUBLE_EQ(jobs.front().submit_time, 0.0);
  double prev = -1.0;
  double total_gap = 0.0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.submit_time, prev);
    prev = j.submit_time;
  }
  total_gap = jobs.back().submit_time / (jobs.size() - 1);
  EXPECT_NEAR(total_gap, 60.0, 12.0);
}

TEST(Msd, UsesAllThreeApplications) {
  MsdConfig cfg;
  cfg.num_jobs = 200;
  MsdGenerator gen(cfg);
  Rng rng(6);
  std::map<AppKind, int> apps;
  for (const auto& j : gen.generate(rng)) ++apps[j.app];
  EXPECT_EQ(apps.size(), 3u);
  for (const auto& [k, c] : apps) EXPECT_GT(c, 30);
}

TEST(Msd, DeterministicGivenSeed) {
  MsdGenerator gen(MsdConfig{});
  Rng r1(7), r2(7);
  const auto a = gen.generate(r1);
  const auto b = gen.generate(r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_DOUBLE_EQ(a[i].input_mb, b[i].input_mb);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
  }
}

TEST(Arrival, PoissonRateIsRespected) {
  PoissonArrivals p(30.0);  // tasks per minute
  Rng rng(8);
  const auto times = p.arrivals(3600.0, rng);
  EXPECT_NEAR(static_cast<double>(times.size()), 1800.0, 150.0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
    EXPECT_LT(times[i], 3600.0);
  }
}

TEST(Arrival, RejectsBadInput) {
  EXPECT_THROW(PoissonArrivals(0.0), PreconditionError);
  PoissonArrivals p(1.0);
  Rng rng(10);
  EXPECT_THROW(p.arrivals(0.0, rng), PreconditionError);
}

TEST(Arrival, PoissonDeterministicGivenSeed) {
  const PoissonArrivals p(12.0);
  Rng r1(11), r2(11), r3(12);
  const auto a = p.arrivals(7200.0, r1);
  const auto b = p.arrivals(7200.0, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  const auto c = p.arrivals(7200.0, r3);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i] < c[i] || c[i] < a[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Arrival, DiurnalMeanRateMatchesBaseOverFullPeriods) {
  // The sinusoid integrates to zero over whole periods, so the expected
  // count over exactly two days is base * minutes.
  const DiurnalArrivals d(6.0, 0.8);
  Rng rng(13);
  const Seconds horizon = 2.0 * 86400.0;
  const auto times = d.arrivals(horizon, rng);
  const double expected = 6.0 * horizon / 60.0;
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.1 * expected);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], 0.0);
    EXPECT_LT(times[i], horizon);
    if (i > 0) {
      EXPECT_GE(times[i], times[i - 1]);
    }
  }
}

TEST(Arrival, DiurnalPeakOutweighsTrough) {
  // rate(t) peaks at period/4 and bottoms at 3*period/4: a window around
  // the peak must collect several times the arrivals of the trough window.
  const DiurnalArrivals d(6.0, 0.8);
  EXPECT_GT(d.rate_at(86400.0 / 4.0), d.rate_at(3.0 * 86400.0 / 4.0));
  Rng rng(14);
  const auto times = d.arrivals(86400.0, rng);
  const auto count_in = [&](Seconds lo, Seconds hi) {
    std::size_t n = 0;
    for (const Seconds t : times) {
      if (lo <= t && t < hi) ++n;
    }
    return n;
  };
  const std::size_t peak = count_in(86400.0 / 4.0 - 3600.0,
                                    86400.0 / 4.0 + 3600.0);
  const std::size_t trough = count_in(3.0 * 86400.0 / 4.0 - 3600.0,
                                      3.0 * 86400.0 / 4.0 + 3600.0);
  EXPECT_GT(peak, 3 * trough);
}

TEST(Arrival, DiurnalZeroAmplitudeDegeneratesToFlatPoisson) {
  const DiurnalArrivals flat(10.0, 0.0);
  EXPECT_DOUBLE_EQ(flat.rate_at(0.0), flat.rate_at(86400.0 / 4.0));
  Rng rng(15);
  const auto times = flat.arrivals(6.0 * 3600.0, rng);
  const double expected = 10.0 * 6.0 * 60.0;
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.15 * expected);
}

TEST(Arrival, BurstyMeanRateMatchesTwoStateAverage) {
  const BurstyArrivals b(6.0, 4.0, 1800.0, 600.0);
  // Long-run mean: (calm*base + burst*mult*base) / (calm + burst).
  EXPECT_NEAR(b.mean_rate_per_minute(),
              (1800.0 * 6.0 + 600.0 * 24.0) / 2400.0, 1e-9);
  Rng rng(16);
  const Seconds horizon = 4.0 * 86400.0;
  const auto times = b.arrivals(horizon, rng);
  const double expected = b.mean_rate_per_minute() * horizon / 60.0;
  EXPECT_NEAR(static_cast<double>(times.size()), expected, 0.15 * expected);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], 0.0);
    EXPECT_LT(times[i], horizon);
    if (i > 0) {
      EXPECT_GE(times[i], times[i - 1]);
    }
  }
}

TEST(Arrival, BurstyIsBurstierThanPoisson) {
  // Dispersion test: per-10-minute bin counts of an MMPP with a 6x burst
  // state must have a variance-to-mean ratio well above the Poisson's ~1.
  const auto dispersion = [](const std::vector<Seconds>& times,
                             Seconds horizon) {
    const Seconds bin = 600.0;
    std::vector<double> counts(static_cast<std::size_t>(horizon / bin), 0.0);
    for (const Seconds t : times) {
      counts[static_cast<std::size_t>(t / bin)] += 1.0;
    }
    return variance_of(counts) / mean_of(counts);
  };
  const Seconds horizon = 2.0 * 86400.0;
  Rng r1(17), r2(18);
  const auto bursty =
      BurstyArrivals(6.0, 6.0, 1800.0, 600.0).arrivals(horizon, r1);
  const auto flat = PoissonArrivals(6.0).arrivals(horizon, r2);
  EXPECT_GT(dispersion(bursty, horizon), 2.0 * dispersion(flat, horizon));
}

TEST(Arrival, ProfilesDeterministicGivenSeed) {
  const DiurnalArrivals d(6.0, 0.8);
  const BurstyArrivals b(6.0, 4.0);
  Rng d1(19), d2(19), b1(20), b2(20);
  const auto da = d.arrivals(86400.0, d1);
  const auto db = d.arrivals(86400.0, d2);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) EXPECT_DOUBLE_EQ(da[i], db[i]);
  const auto ba = b.arrivals(86400.0, b1);
  const auto bb = b.arrivals(86400.0, b2);
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) EXPECT_DOUBLE_EQ(ba[i], bb[i]);
}

TEST(Arrival, ProfilesRejectBadInput) {
  EXPECT_THROW(DiurnalArrivals(0.0, 0.5), PreconditionError);
  EXPECT_THROW(DiurnalArrivals(6.0, -0.1), PreconditionError);
  EXPECT_THROW(DiurnalArrivals(6.0, 1.0), PreconditionError);
  EXPECT_THROW(DiurnalArrivals(6.0, 0.5, 0.0), PreconditionError);
  EXPECT_THROW(BurstyArrivals(0.0, 4.0), PreconditionError);
  EXPECT_THROW(BurstyArrivals(6.0, 0.5), PreconditionError);
  EXPECT_THROW(BurstyArrivals(6.0, 4.0, 0.0, 300.0), PreconditionError);
  DiurnalArrivals d(6.0, 0.5);
  BurstyArrivals b(6.0, 4.0);
  Rng rng(21);
  EXPECT_THROW(d.arrivals(-1.0, rng), PreconditionError);
  EXPECT_THROW(b.arrivals(0.0, rng), PreconditionError);
}

}  // namespace
}  // namespace eant::workload
