// Unit tests for the ACO sampling (Eq. 3/8), the fairness heuristic (Eq. 7)
// and the convergence tracker (Sec. VI-C's 80%-revisit stability rule).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/error.h"
#include "core/aco.h"
#include "core/convergence.h"
#include "core/heuristic.h"

namespace eant::core {
namespace {

// --- fairness heuristic (Eq. 7) ------------------------------------------------

TEST(FairnessEta, AtFairShareIsOne) {
  EXPECT_DOUBLE_EQ(fairness_eta(10.0, 10.0, 100.0), 1.0);
}

TEST(FairnessEta, BelowShareBoostsAboveOne) {
  const double eta = fairness_eta(10.0, 2.0, 100.0);
  EXPECT_GT(eta, 1.0);
  // The more starved, the larger the boost.
  EXPECT_GT(fairness_eta(10.0, 0.0, 100.0), eta);
}

TEST(FairnessEta, AboveShareDropsBelowOne) {
  const double eta = fairness_eta(10.0, 30.0, 100.0);
  EXPECT_LT(eta, 1.0);
  EXPECT_GT(eta, 0.0);
  EXPECT_LT(fairness_eta(10.0, 60.0, 100.0), eta);
}

TEST(FairnessEta, ExactFormula) {
  // eta = 1 / (1 - (Smin - Socc)/Spool) = 1 / (1 - (20-5)/100).
  EXPECT_NEAR(fairness_eta(20.0, 5.0, 100.0), 1.0 / 0.85, 1e-12);
}

TEST(FairnessEta, FullyStarvedSingleJobClampsToMax) {
  // Smin == Spool, Socc == 0 -> denominator 0 -> clamp to eta_max.
  EXPECT_DOUBLE_EQ(fairness_eta(100.0, 0.0, 100.0), 1e3);
  EXPECT_DOUBLE_EQ(fairness_eta(100.0, 0.0, 100.0, 1e-3, 42.0), 42.0);
}

TEST(FairnessEta, RejectsBadInput) {
  EXPECT_THROW(fairness_eta(1.0, 1.0, 0.0), PreconditionError);
  EXPECT_THROW(fairness_eta(-1.0, 1.0, 10.0), PreconditionError);
}

TEST(FairShare, DividesSlotsEvenly) {
  EXPECT_DOUBLE_EQ(fair_share(96, 4), 24.0);
  EXPECT_THROW(fair_share(96, 0), PreconditionError);
}

// --- sampling (Eq. 3/8) ---------------------------------------------------------

/// Samples among `candidates` with each one's eta_boost(eta(j), beta).
template <typename Eta>
std::optional<mr::JobId> sample(const PheromoneTable& t, Rng& rng,
                                const std::vector<mr::JobId>& candidates,
                                Eta eta, double beta) {
  std::vector<double> boosts;
  for (mr::JobId j : candidates) boosts.push_back(eta_boost(eta(j), beta));
  std::vector<double> weights;
  return sample_job(t, rng, candidates, boosts, mr::TaskKind::kMap, 0,
                    weights);
}

TEST(SampleJob, EmptyCandidatesGiveNothing) {
  PheromoneTable t(2, 0.5);
  Rng rng(1);
  EXPECT_FALSE(
      sample(t, rng, {}, [](mr::JobId) { return 1.0; }, 0.1).has_value());
}

TEST(SampleJob, UniformTauGivesUniformChoice) {
  PheromoneTable t(2, 0.5);
  t.add_job(0);
  t.add_job(1);
  Rng rng(2);
  std::map<mr::JobId, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const auto j = sample(t, rng, {0, 1}, [](mr::JobId) { return 1.0; }, 0.1);
    ++counts[*j];
  }
  EXPECT_NEAR(counts[0] / 20000.0, 0.5, 0.02);
}

TEST(SampleJob, FollowsPheromoneRatio) {
  // The Fig. 5 example: tau(A) = 1.5, tau(B) = 0.83 for one colony across
  // two machines gives P(A) = 64%.  Dual view: one machine choosing between
  // two colonies whose normalised tau ratio is 1.5 : 0.83.
  PheromoneTable t(2, 0.5, 1.0, 0.01);
  t.add_job(0);
  t.add_job(1);
  DeltaMap d;
  // After apply with rho=0.5 from tau=1: tau = 0.5 + 0.5*deposit.
  d[{0, mr::TaskKind::kMap}] = {2.0, 1.0};  // tau -> 1.5 on m0, 1.0 on m1
  d[{1, mr::TaskKind::kMap}] = {0.66, 1.0};  // tau -> 0.83 on m0, 1.0 on m1
  t.apply(d);

  Rng rng(3);
  int picks0 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto j = sample(t, rng, {0, 1}, [](mr::JobId) { return 1.0; }, 0.0);
    if (*j == 0) ++picks0;
  }
  const double w0 = 1.5 / 2.5, w1 = 0.83 / 1.83;
  EXPECT_NEAR(picks0 / double(n), w0 / (w0 + w1), 0.02);
}

TEST(SampleJob, BetaZeroIgnoresEta) {
  PheromoneTable t(1, 0.5);
  t.add_job(0);
  t.add_job(1);
  Rng rng(4);
  std::map<mr::JobId, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const auto j = sample(
        t, rng, {0, 1},
        [](mr::JobId j2) { return j2 == 0 ? 1000.0 : 0.001; }, 0.0);
    ++counts[*j];
  }
  EXPECT_NEAR(counts[0] / 20000.0, 0.5, 0.02);
}

TEST(SampleJob, LargerBetaAmplifiesEta) {
  PheromoneTable t(1, 0.5);
  t.add_job(0);
  t.add_job(1);
  auto eta = [](mr::JobId j) { return j == 0 ? 4.0 : 1.0; };
  auto frequency = [&](double beta) {
    Rng rng(5);
    int c0 = 0;
    for (int i = 0; i < 20000; ++i) {
      if (*sample(t, rng, {0, 1}, eta, beta) == 0) ++c0;
    }
    return c0 / 20000.0;
  };
  const double f_small = frequency(0.1);
  const double f_large = frequency(1.0);
  EXPECT_GT(f_small, 0.5);
  EXPECT_GT(f_large, f_small + 0.1);
  // beta = 1: weights 4 vs 1 -> 80%.
  EXPECT_NEAR(f_large, 0.8, 0.02);
}

TEST(SampleJob, RejectsNegativeBeta) {
  PheromoneTable t(1, 0.5);
  t.add_job(0);
  Rng rng(6);
  EXPECT_THROW(sample(t, rng, {0}, [](mr::JobId) { return 1.0; }, -0.1),
               PreconditionError);
}

// --- convergence tracker --------------------------------------------------------

TEST(Convergence, StableWhenDistributionRepeats) {
  ConvergenceTracker c(0.8);
  c.record_interval(0, 0.0, 300.0, {10, 5, 0});
  EXPECT_FALSE(c.converged(0));
  c.record_interval(0, 0.0, 600.0, {9, 6, 0});  // overlap = 14/15 > 0.8
  EXPECT_TRUE(c.converged(0));
  EXPECT_DOUBLE_EQ(*c.convergence_time(0), 600.0);
}

TEST(Convergence, UnstableWhenAssignmentShifts) {
  ConvergenceTracker c(0.8);
  c.record_interval(0, 0.0, 300.0, {10, 0});
  c.record_interval(0, 0.0, 600.0, {0, 10});  // overlap 0
  EXPECT_FALSE(c.converged(0));
  EXPECT_DOUBLE_EQ(*c.last_overlap(0), 0.0);
  c.record_interval(0, 0.0, 900.0, {1, 9});  // overlap 9/10
  EXPECT_TRUE(c.converged(0));
  EXPECT_DOUBLE_EQ(*c.convergence_time(0), 900.0);
}

TEST(Convergence, ConvergenceTimeIsRelativeToSubmission) {
  ConvergenceTracker c(0.8);
  c.record_interval(3, 1000.0, 1300.0, {5, 5});
  c.record_interval(3, 1000.0, 1600.0, {5, 5});
  EXPECT_DOUBLE_EQ(*c.convergence_time(3), 600.0);
}

TEST(Convergence, EmptyIntervalsAreSkipped) {
  ConvergenceTracker c(0.8);
  c.record_interval(0, 0.0, 300.0, {10, 0});
  c.record_interval(0, 0.0, 600.0, {0, 0});  // no tasks: ignored
  c.record_interval(0, 0.0, 900.0, {10, 0});
  EXPECT_TRUE(c.converged(0));
}

TEST(Convergence, FirstStableTimeIsKept) {
  ConvergenceTracker c(0.8);
  c.record_interval(0, 0.0, 300.0, {10});
  c.record_interval(0, 0.0, 600.0, {10});
  c.record_interval(0, 0.0, 900.0, {10});
  EXPECT_DOUBLE_EQ(*c.convergence_time(0), 600.0);
}

TEST(Convergence, UnknownJobReportsNothing) {
  ConvergenceTracker c(0.8);
  EXPECT_FALSE(c.converged(42));
  EXPECT_FALSE(c.convergence_time(42).has_value());
  EXPECT_FALSE(c.last_overlap(42).has_value());
}

TEST(Convergence, ThresholdValidation) {
  EXPECT_THROW(ConvergenceTracker(0.0), PreconditionError);
  EXPECT_THROW(ConvergenceTracker(1.5), PreconditionError);
  EXPECT_NO_THROW(ConvergenceTracker(1.0));
}

TEST(Convergence, OverlapUsesLargerTotalAsDenominator) {
  ConvergenceTracker c(0.8);
  c.record_interval(0, 0.0, 300.0, {8, 2});
  c.record_interval(0, 0.0, 600.0, {16, 4});  // doubled volume: overlap 10/20
  EXPECT_FALSE(c.converged(0));
  EXPECT_DOUBLE_EQ(*c.last_overlap(0), 0.5);
}

}  // namespace
}  // namespace eant::core
