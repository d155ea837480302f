// Unit tests for the pheromone table (Eq. 4), the deposit math (Eq. 5,
// including the paper's worked example from Sec. IV-C-2), negative feedback
// (Eq. 6) and the exchange strategies (Sec. IV-D).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/aco.h"
#include "core/exchange.h"
#include "core/pheromone.h"
#include "sim/simulator.h"

namespace eant::core {
namespace {

mr::TaskReport report_on(mr::JobId job, cluster::MachineId machine,
                         mr::TaskKind kind = mr::TaskKind::kMap) {
  mr::TaskReport r;
  r.spec.job = job;
  r.spec.kind = kind;
  r.machine = machine;
  return r;
}

TEST(PheromoneTable, InitialisesTrailsAtTauInit) {
  PheromoneTable t(3, 0.5, 1.0);
  t.add_job(0);
  for (cluster::MachineId m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kMap, m), 1.0);
    EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kReduce, m), 1.0);
  }
  EXPECT_DOUBLE_EQ(t.row_sum(0, mr::TaskKind::kMap), 3.0);
}

TEST(PheromoneTable, AddRemoveLifecycle) {
  PheromoneTable t(2, 0.5);
  EXPECT_FALSE(t.has_job(7));
  t.add_job(7);
  EXPECT_TRUE(t.has_job(7));
  EXPECT_THROW(t.add_job(7), PreconditionError);
  t.remove_job(7);
  EXPECT_FALSE(t.has_job(7));
  EXPECT_THROW(t.tau(7, mr::TaskKind::kMap, 0), PreconditionError);
}

TEST(PheromoneTable, RejectsBadConstruction) {
  EXPECT_THROW(PheromoneTable(0, 0.5), PreconditionError);
  EXPECT_THROW(PheromoneTable(2, 1.5), PreconditionError);
  EXPECT_THROW(PheromoneTable(2, 0.5, 0.0), PreconditionError);
  EXPECT_THROW(PheromoneTable(2, 0.5, 1.0, 2.0), PreconditionError);
}

// The worked example of Sec. IV-C-2: machine A completes two tasks at 2 kJ
// each, machine B one task at 3 kJ; rho = 0.5 and tau_1 = 1 everywhere.
// Average colony energy = (2+2+3)/3 kJ; deposits: A gets 2 * (7/3)/2,
// B gets (7/3)/3.  tau_2(A) = 0.5*1 + 0.5*2.3333 = 1.6667,
// tau_2(B) = 0.5*1 + 0.5*0.7778 = 0.8889.
TEST(PheromoneTable, PaperWorkedExample) {
  std::vector<EstimatedReport> interval;
  interval.push_back({report_on(0, 0), 2000.0});
  interval.push_back({report_on(0, 0), 2000.0});
  interval.push_back({report_on(0, 1), 3000.0});
  const DeltaMap deposits = compute_deposits(interval, 2);

  const auto& row = deposits.at({0, mr::TaskKind::kMap});
  EXPECT_NEAR(row[0], 2.0 * (7.0 / 3.0) / 2.0, 1e-12);
  EXPECT_NEAR(row[1], (7.0 / 3.0) / 3.0, 1e-12);

  PheromoneTable t(2, 0.5, 1.0, 0.01);
  t.add_job(0);
  t.apply(deposits);
  EXPECT_NEAR(t.tau(0, mr::TaskKind::kMap, 0), 1.0 + 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(t.tau(0, mr::TaskKind::kMap, 1), 8.0 / 9.0, 1e-9);
}

TEST(PheromoneTable, EvaporationWithoutDepositOnSomeMachines) {
  PheromoneTable t(3, 0.5, 1.0, 0.01);
  t.add_job(0);
  DeltaMap deposits;
  deposits[{0, mr::TaskKind::kMap}] = {2.0, 0.0, 0.0};
  t.apply(deposits);
  EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kMap, 0), 0.5 + 1.0);
  // Machines with zero deposit in an active trail purely evaporate (Eq. 4).
  EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kMap, 1), 0.5);
  // Reduce trail saw no deposits at all and stays untouched.
  EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kReduce, 0), 1.0);
}

TEST(PheromoneTable, TauFloorHolds) {
  PheromoneTable t(2, 0.5, 1.0, 0.05);
  t.add_job(0);
  DeltaMap deposits;
  deposits[{0, mr::TaskKind::kMap}] = {-100.0, -100.0};  // negative feedback
  t.apply(deposits);
  EXPECT_DOUBLE_EQ(t.tau(0, mr::TaskKind::kMap, 0), 0.05);
  EXPECT_GT(t.row_sum(0, mr::TaskKind::kMap), 0.0);
}

TEST(PheromoneTable, DepositsForRemovedJobsIgnored) {
  PheromoneTable t(2, 0.5);
  t.add_job(0);
  t.remove_job(0);
  DeltaMap deposits;
  deposits[{0, mr::TaskKind::kMap}] = {1.0, 1.0};
  EXPECT_NO_THROW(t.apply(deposits));
}

TEST(ComputeDeposits, EnergyFloorPreventsDivision) {
  std::vector<EstimatedReport> interval;
  interval.push_back({report_on(0, 0), 0.0});  // zero-energy estimate
  interval.push_back({report_on(0, 1), 10.0});
  const DeltaMap deposits = compute_deposits(interval, 2);
  const auto& row = deposits.at({0, mr::TaskKind::kMap});
  EXPECT_TRUE(std::isfinite(row[0]));
  EXPECT_GT(row[0], row[1]);  // cheaper task earns more pheromone
}

TEST(ComputeDeposits, SeparatesMapAndReduceColonies) {
  std::vector<EstimatedReport> interval;
  interval.push_back({report_on(0, 0, mr::TaskKind::kMap), 10.0});
  interval.push_back({report_on(0, 1, mr::TaskKind::kReduce), 10.0});
  const DeltaMap deposits = compute_deposits(interval, 2);
  EXPECT_EQ(deposits.size(), 2u);
  EXPECT_TRUE(deposits.contains({0, mr::TaskKind::kMap}));
  EXPECT_TRUE(deposits.contains({0, mr::TaskKind::kReduce}));
}

TEST(ComputeDeposits, EfficientMachineEarnsMorePheromone) {
  // Machine 0 finishes tasks at 5 J, machine 1 at 20 J.
  std::vector<EstimatedReport> interval;
  for (int i = 0; i < 4; ++i) interval.push_back({report_on(0, 0), 5.0});
  for (int i = 0; i < 4; ++i) interval.push_back({report_on(0, 1), 20.0});
  const auto deposits = compute_deposits(interval, 2);
  const auto& row = deposits.at({0, mr::TaskKind::kMap});
  EXPECT_GT(row[0], row[1] * 2.0);
}

// --- exchange strategies -------------------------------------------------------

TEST(MachineExchange, AveragesWithinHomogeneousGroup) {
  sim::Simulator sim;
  cluster::Cluster c(sim);
  c.add_machines(cluster::catalog::desktop(), 2);  // group {0,1}
  c.add_machines(cluster::catalog::atom(), 1);     // group {2}
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {4.0, 0.0, 5.0};
  const DeltaMap out = machine_level_exchange(deltas, c);
  const auto& row = out.at({0, mr::TaskKind::kMap});
  EXPECT_DOUBLE_EQ(row[0], 2.0);  // (4+0)/2
  EXPECT_DOUBLE_EQ(row[1], 2.0);
  EXPECT_DOUBLE_EQ(row[2], 5.0);  // singleton group unchanged
}

TEST(MachineExchange, PreservesTotalWithinGroup) {
  sim::Simulator sim;
  cluster::Cluster c(sim);
  c.add_machines(cluster::catalog::t110(), 3);
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kReduce}] = {6.0, 3.0, 0.0};
  const auto out = machine_level_exchange(deltas, c);
  const auto& row = out.at({0, mr::TaskKind::kReduce});
  EXPECT_DOUBLE_EQ(row[0] + row[1] + row[2], 9.0);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
}

/// The loop machine_level_exchange replaced: every machine sums its whole
/// homogeneous group.
DeltaMap per_machine_exchange(const DeltaMap& deltas,
                              const cluster::Cluster& cluster) {
  DeltaMap out;
  for (const auto& [key, per_machine] : deltas) {
    std::vector<double> smoothed(per_machine.size(), 0.0);
    for (cluster::MachineId m = 0; m < per_machine.size(); ++m) {
      const auto group =
          cluster.machines_of_type(cluster.machine(m).type().name);
      double sum = 0.0;
      for (cluster::MachineId peer : group) sum += per_machine[peer];
      smoothed[m] = sum / static_cast<double>(group.size());
    }
    out[key] = std::move(smoothed);
  }
  return out;
}

TEST(MachineExchange, PerGroupMeansMatchThePerMachineLoop) {
  const cluster::MachineType types[] = {
      cluster::catalog::desktop(), cluster::catalog::t420(),
      cluster::catalog::xeon_e5(), cluster::catalog::t110(),
      cluster::catalog::t320(),    cluster::catalog::t620(),
      cluster::catalog::atom()};
  std::size_t compared = 0;
  std::size_t singletons = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    sim::Simulator sim;
    cluster::Cluster c(sim);
    if (seed == 1) {
      // eant-wide-batch's fleet: the paper fleet copied 24 times, so every
      // group's members are spread across the id range.
      for (int copy = 0; copy < 24; ++copy) cluster::add_paper_fleet(c);
    } else {
      // Runs of random types and lengths: types recur after others, and a
      // type added once forms a single-machine group.
      const auto runs = rng.uniform_int(1, 12);
      for (std::int64_t r = 0; r < runs; ++r) {
        const auto type = static_cast<std::size_t>(rng.uniform_int(0, 6));
        c.add_machines(types[type],
                       static_cast<std::size_t>(rng.uniform_int(1, 4)));
      }
    }
    for (const std::string& type : c.type_names()) {
      singletons += c.machines_of_type(type).size() == 1;
    }
    // Zeros, negatives and magnitudes six decades apart, so a different
    // order of additions would round differently.
    DeltaMap deltas;
    const auto colonies = rng.uniform_int(1, 6);
    for (mr::JobId j = 0; j < static_cast<mr::JobId>(colonies); ++j) {
      for (mr::TaskKind kind : {mr::TaskKind::kMap, mr::TaskKind::kReduce}) {
        std::vector<double> row(c.size());
        for (double& d : row) {
          d = rng.bernoulli(0.25) ? 0.0
                                  : rng.uniform(-1.0, 1.0) *
                                        std::pow(10.0, rng.uniform(-3.0, 3.0));
        }
        deltas[{j, kind}] = std::move(row);
      }
    }
    const DeltaMap fast = machine_level_exchange(deltas, c);
    const DeltaMap slow = per_machine_exchange(deltas, c);
    ASSERT_EQ(fast.size(), slow.size());
    for (const auto& [key, row] : slow) {
      const std::vector<double>& got = fast.at(key);
      ASSERT_EQ(got.size(), row.size());
      for (cluster::MachineId m = 0; m < row.size(); ++m) {
        EXPECT_EQ(got[m], row[m]) << "seed " << seed << ", machine " << m;
      }
      compared += row.size();
    }
  }
  std::printf("machine exchange: %zu deposits compared, %zu single-machine "
              "groups\n",
              compared, singletons);
  EXPECT_GT(singletons, 0u);
}

TEST(JobExchange, AveragesAcrossHomogeneousJobs) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {4.0, 0.0};
  deltas[{1, mr::TaskKind::kMap}] = {0.0, 8.0};
  deltas[{2, mr::TaskKind::kMap}] = {100.0, 100.0};
  const auto out = job_level_exchange(deltas, [](mr::JobId j) {
    return j <= 1 ? std::string("Wordcount-S") : std::string("Grep-L");
  });
  const auto& row0 = out.at({0, mr::TaskKind::kMap});
  const auto& row1 = out.at({1, mr::TaskKind::kMap});
  EXPECT_DOUBLE_EQ(row0[0], 2.0);
  EXPECT_DOUBLE_EQ(row0[1], 4.0);
  EXPECT_EQ(row0, row1);  // homogeneous jobs share experiences
  const auto& row2 = out.at({2, mr::TaskKind::kMap});
  EXPECT_DOUBLE_EQ(row2[0], 100.0);  // different class untouched
}

TEST(JobExchange, KindsDoNotMix) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {10.0};
  deltas[{1, mr::TaskKind::kReduce}] = {2.0};
  const auto out = job_level_exchange(
      deltas, [](mr::JobId) { return std::string("same-class"); });
  EXPECT_DOUBLE_EQ(out.at({0, mr::TaskKind::kMap})[0], 10.0);
  EXPECT_DOUBLE_EQ(out.at({1, mr::TaskKind::kReduce})[0], 2.0);
}

std::function<std::string(mr::JobId)> classes_by_parity() {
  // Even job ids are "Wordcount-S", odd are "Grep-S".
  return [](mr::JobId j) {
    return j % 2 == 0 ? std::string("Wordcount-S") : std::string("Grep-S");
  };
}

TEST(NegativeFeedback, SubtractsCompetingClassMean) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {3.0, 0.0};  // Wordcount-S
  deltas[{1, mr::TaskKind::kMap}] = {1.0, 2.0};  // Grep-S
  const auto out = apply_negative_feedback(deltas, classes_by_parity());
  // Job 0 on machine 0: own 3 minus the competing class mean 1 = 2.
  EXPECT_DOUBLE_EQ(out.at({0, mr::TaskKind::kMap})[0], 2.0);
  EXPECT_DOUBLE_EQ(out.at({0, mr::TaskKind::kMap})[1], -2.0);
  EXPECT_DOUBLE_EQ(out.at({1, mr::TaskKind::kMap})[0], -2.0);
  EXPECT_DOUBLE_EQ(out.at({1, mr::TaskKind::kMap})[1], 2.0);
}

TEST(NegativeFeedback, HomogeneousColoniesDoNotFight) {
  // Same-class colonies pool experiences (job-level exchange); Eq. 6 must
  // not make them subtract from each other, or the shared ranking inverts.
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {3.0, 1.0};
  deltas[{2, mr::TaskKind::kMap}] = {3.0, 1.0};  // same class (even ids)
  const auto out = apply_negative_feedback(deltas, classes_by_parity());
  EXPECT_EQ(out.at({0, mr::TaskKind::kMap}), (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(out.at({2, mr::TaskKind::kMap}), (std::vector<double>{3.0, 1.0}));
}

TEST(NegativeFeedback, CompetitorMeanUsesColonyCount) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {6.0};  // Wordcount-S
  deltas[{1, mr::TaskKind::kMap}] = {2.0};  // Grep-S
  deltas[{3, mr::TaskKind::kMap}] = {4.0};  // Grep-S
  const auto out = apply_negative_feedback(deltas, classes_by_parity());
  // Job 0: 6 - mean(2, 4) = 3.
  EXPECT_DOUBLE_EQ(out.at({0, mr::TaskKind::kMap})[0], 3.0);
  // Each grep colony: own - mean of wordcount colonies (just 6).
  EXPECT_DOUBLE_EQ(out.at({1, mr::TaskKind::kMap})[0], -4.0);
  EXPECT_DOUBLE_EQ(out.at({3, mr::TaskKind::kMap})[0], -2.0);
}

TEST(NegativeFeedback, SingleColonyUnchanged) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {3.0, 1.0};
  const auto out = apply_negative_feedback(deltas, classes_by_parity());
  EXPECT_EQ(out.at({0, mr::TaskKind::kMap}),
            (std::vector<double>{3.0, 1.0}));
}

TEST(NegativeFeedback, KindsAreIndependent) {
  DeltaMap deltas;
  deltas[{0, mr::TaskKind::kMap}] = {3.0};
  deltas[{1, mr::TaskKind::kReduce}] = {5.0};
  const auto out = apply_negative_feedback(deltas, classes_by_parity());
  EXPECT_DOUBLE_EQ(out.at({0, mr::TaskKind::kMap})[0], 3.0);
  EXPECT_DOUBLE_EQ(out.at({1, mr::TaskKind::kReduce})[0], 5.0);
}

TEST(Exchange, EmptyInputsProduceEmptyOutputs) {
  sim::Simulator sim;
  cluster::Cluster c(sim);
  c.add_machines(cluster::catalog::atom(), 1);
  EXPECT_TRUE(machine_level_exchange({}, c).empty());
  EXPECT_TRUE(
      job_level_exchange({}, [](mr::JobId) { return std::string("x"); })
          .empty());
  EXPECT_TRUE(apply_negative_feedback({}, classes_by_parity()).empty());
}

}  // namespace
}  // namespace eant::core
