// Unit tests for the cluster substrate: the linear power model, exact energy
// integration, the sampling power meter (WattsUP substitute), homogeneous
// grouping, and the paper's machine catalog (Table I / Sec. V-B).

#include <gtest/gtest.h>

#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "cluster/power_meter.h"
#include "common/error.h"
#include "sim/simulator.h"

namespace eant::cluster {
namespace {

MachineType test_type() {
  MachineType t;
  t.name = "Test";
  t.cores = 4;
  t.cpu_factor = 1.0;
  t.io_mbps = 100.0;
  t.idle_power = 50.0;
  t.alpha = 100.0;
  return t;
}

TEST(MachineType, PowerIsLinearInUtilisation) {
  const MachineType t = test_type();
  EXPECT_DOUBLE_EQ(t.power_at(0.0), 50.0);
  EXPECT_DOUBLE_EQ(t.power_at(0.5), 100.0);
  EXPECT_DOUBLE_EQ(t.power_at(1.0), 150.0);
}

TEST(MachineType, PowerClampsUtilisation) {
  const MachineType t = test_type();
  EXPECT_DOUBLE_EQ(t.power_at(-0.5), 50.0);
  EXPECT_DOUBLE_EQ(t.power_at(2.0), 150.0);
}

TEST(MachineType, TaskRuntimeCombinesCpuAndIo) {
  MachineType t = test_type();
  t.cpu_factor = 0.5;  // half-speed cores
  // 10 ref-seconds -> 20 s of CPU; 200 MB at 100 MB/s -> 2 s of IO.
  EXPECT_DOUBLE_EQ(t.task_runtime(10.0, 200.0), 22.0);
  EXPECT_THROW(t.task_runtime(-1.0, 0.0), PreconditionError);
  EXPECT_THROW(t.task_runtime(0.0, -1.0), PreconditionError);
}

TEST(Machine, RejectsMisconfiguredTypes) {
  sim::Simulator sim;
  MachineType t = test_type();
  t.cores = 0;
  EXPECT_THROW(Machine(sim, 0, t), PreconditionError);
  t = test_type();
  t.cpu_factor = 0.0;
  EXPECT_THROW(Machine(sim, 0, t), PreconditionError);
  t = test_type();
  t.idle_power = -1.0;
  EXPECT_THROW(Machine(sim, 0, t), PreconditionError);
}

TEST(Machine, UtilisationTracksDemand) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
  m.adjust_demand(1.0);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.25);
  m.adjust_demand(2.0);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.75);
  m.adjust_demand(3.0);  // 6 cores demanded of 4 -> clamped utilisation
  EXPECT_DOUBLE_EQ(m.utilization(), 1.0);
  EXPECT_TRUE(m.oversubscribed());
  m.adjust_demand(-6.0);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
  EXPECT_FALSE(m.oversubscribed());
}

TEST(Machine, EnergyIntegratesExactly) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  // 10 s idle: 50 W.
  sim.schedule_at(10.0, [&] { m.adjust_demand(2.0); });  // util 0.5 -> 100 W
  sim.schedule_at(30.0, [&] { m.adjust_demand(-2.0); });
  sim.run();
  sim.run_until(40.0);
  // 10*50 + 20*100 + 10*50 = 3000 J
  EXPECT_DOUBLE_EQ(m.energy(), 3000.0);
}

TEST(Machine, UtilizationIntegral) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  sim.schedule_at(0.0, [&] { m.adjust_demand(4.0); });  // util 1.0
  sim.schedule_at(10.0, [&] { m.adjust_demand(-2.0); });  // util 0.5
  sim.run();
  sim.run_until(20.0);
  EXPECT_DOUBLE_EQ(m.utilization_integral(), 10.0 * 1.0 + 10.0 * 0.5);
}

TEST(Machine, NegativeDemandDriftIsForgiven) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  m.adjust_demand(1.0);
  m.adjust_demand(-1.0 - 1e-9);  // rounding drift
  EXPECT_DOUBLE_EQ(m.demand_cores(), 0.0);
  EXPECT_THROW(m.adjust_demand(-0.5), InvariantError);
}

TEST(PowerMeter, MatchesExactIntegralForConstantLoad) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  PowerMeter meter(sim, m, 1.0);
  m.adjust_demand(2.0);  // constant 100 W
  sim.run_until(100.0);
  EXPECT_NEAR(meter.energy(), m.energy(), 1e-6);
  EXPECT_EQ(meter.samples(), 100u);
  EXPECT_NEAR(meter.mean_power(), 100.0, 1e-9);
}

TEST(PowerMeter, TracksVaryingLoadClosely) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  PowerMeter meter(sim, m, 1.0);
  // Toggle demand every 10 s; meter (1 s samples) should stay close to the
  // exact integral.
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * 10.0, [&m, i] {
      m.adjust_demand(i % 2 == 0 ? 2.0 : -2.0);
    });
  }
  sim.run_until(100.0);
  EXPECT_NEAR(meter.energy(), m.energy(), 0.02 * m.energy());
}

TEST(PowerMeter, SeriesRecordingAndReset) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  PowerMeter meter(sim, m, 1.0, /*record_series=*/true);
  sim.run_until(5.0);
  EXPECT_EQ(meter.series().size(), 5u);
  EXPECT_DOUBLE_EQ(meter.series().front().watts, 50.0);
  meter.reset();
  EXPECT_EQ(meter.samples(), 0u);
  EXPECT_DOUBLE_EQ(meter.energy(), 0.0);
  EXPECT_TRUE(meter.series().empty());
}

TEST(PowerMeter, StopsSamplingWhenDestroyed) {
  sim::Simulator sim;
  Machine m(sim, 0, test_type());
  {
    PowerMeter meter(sim, m, 1.0);
    sim.run_until(3.0);
  }
  sim.run_until(10.0);  // must not crash on dangling meter events
  EXPECT_GE(sim.now(), 10.0);
}

TEST(Cluster, AddAndAccessMachines) {
  sim::Simulator sim;
  Cluster c(sim);
  const MachineId first = c.add_machines(test_type(), 3);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.machine(2).id(), 2u);
  EXPECT_THROW(c.machine(3), PreconditionError);
}

TEST(Cluster, HomogeneousGroups) {
  sim::Simulator sim;
  Cluster c(sim);
  c.add_machines(catalog::desktop(), 2);
  c.add_machines(catalog::atom(), 1);
  c.add_machines(catalog::desktop(), 1);  // same type added twice
  EXPECT_EQ(c.machines_of_type("Desktop"), (std::vector<MachineId>{0, 1, 3}));
  EXPECT_EQ(c.machines_of_type("Atom"), (std::vector<MachineId>{2}));
  EXPECT_EQ(c.type_names(), (std::vector<std::string>{"Desktop", "Atom"}));
  EXPECT_TRUE(c.machines_of_type("NoSuch").empty());
}

TEST(Cluster, SlotTotalsAndEnergy) {
  sim::Simulator sim;
  Cluster c(sim);
  c.add_machines(test_type(), 2);  // default 4 map + 2 reduce each
  EXPECT_EQ(c.total_map_slots(), 8);
  EXPECT_EQ(c.total_reduce_slots(), 4);
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(c.total_energy(), 2 * 10.0 * 50.0);
}

TEST(Catalog, PaperFleetComposition) {
  sim::Simulator sim;
  Cluster c(sim);
  add_paper_fleet(c);
  EXPECT_EQ(c.size(), 16u);  // 8 + 3 + 2 + 1 + 1 + 1
  EXPECT_EQ(c.machines_of_type("Desktop").size(), 8u);
  EXPECT_EQ(c.machines_of_type("T110").size(), 3u);
  EXPECT_EQ(c.machines_of_type("T420").size(), 2u);
  EXPECT_EQ(c.machines_of_type("T620").size(), 1u);
  EXPECT_EQ(c.machines_of_type("T320").size(), 1u);
  EXPECT_EQ(c.machines_of_type("Atom").size(), 1u);
  // Paper config: every slave has 4 map slots and 2 reduce slots.
  EXPECT_EQ(c.total_map_slots(), 64);
  EXPECT_EQ(c.total_reduce_slots(), 32);
}

TEST(Catalog, TableOneSpecs) {
  // Table I: Desktop = Core i7 "8 x 3.4 GHz" (hyperthreads; 4 physical
  // cores in the power/contention model), 16 GB; PowerEdge = Xeon E5
  // 24-core, 32 GB.
  const MachineType d = catalog::desktop();
  EXPECT_EQ(d.cores, 4);
  EXPECT_EQ(d.memory_gb, 16);
  const MachineType x = catalog::xeon_e5();
  EXPECT_EQ(x.cores, 24);
  EXPECT_EQ(x.memory_gb, 32);
}

TEST(Catalog, PowerCharacterisationMatchesMotivation) {
  // Sec. II: the Xeon box idles high with a shallow slope; the desktop
  // idles low with a steep slope — the source of the Fig. 1(a) crossover.
  const MachineType d = catalog::desktop();
  const MachineType x = catalog::xeon_e5();
  EXPECT_GT(x.idle_power, d.idle_power);
  EXPECT_LT(x.alpha, d.alpha);
  // The Atom node is the low-power machine of the fleet.
  const MachineType a = catalog::atom();
  EXPECT_LT(a.power_at(1.0), d.power_at(0.0));
}

}  // namespace
}  // namespace eant::cluster
