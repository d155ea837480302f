// Network fabric tests: topology paths, analytic max-min (water-filling)
// fixtures, event-driven rate recomputation, the fabric's one pending
// simulator event, determinism, the flat-topology parity guarantee against
// the legacy scalar model, the Fig. 1(d) ordering under oversubscription,
// and flow recovery when a serving machine crashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace eant {
namespace {

constexpr double kTol = 1e-6;

// --- topology ---------------------------------------------------------------

TEST(Topology, FlatSpecIsOneRackWithUnlimitedLinks) {
  const net::Topology topo(net::TopologySpec::flat(), 8);
  EXPECT_EQ(topo.num_racks(), 1u);
  for (net::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(topo.rack_of(n), 0u);
    EXPECT_FALSE(topo.is_finite(topo.node_tx(n)));
    EXPECT_FALSE(topo.is_finite(topo.node_rx(n)));
  }
  EXPECT_FALSE(topo.is_finite(topo.rack_up(0)));
}

TEST(Topology, RoundRobinRacksAndThreeLevelLocality) {
  const net::Topology topo(net::TopologySpec::oversubscribed(4), 16);
  EXPECT_EQ(topo.num_racks(), 4u);
  for (net::NodeId n = 0; n < 16; ++n) EXPECT_EQ(topo.rack_of(n), n % 4);
  EXPECT_EQ(topo.locality(3, 3), Locality::kNodeLocal);
  EXPECT_EQ(topo.locality(3, 7), Locality::kRackLocal);   // both rack 3
  EXPECT_EQ(topo.locality(3, 4), Locality::kOffRack);
  const auto racks = topo.rack_assignment();
  ASSERT_EQ(racks.size(), 16u);
  EXPECT_EQ(racks[5], 1u);
}

TEST(Topology, PathCrossesAccessLinksAndUplinksAsNeeded) {
  const net::Topology topo(net::TopologySpec::oversubscribed(2, 100.0, 150.0),
                           4);
  std::vector<net::LinkId> path;
  topo.append_path(0, 0, path);  // loopback: free
  EXPECT_TRUE(path.empty());

  topo.append_path(0, 2, path);  // same rack (0 and 2 are both rack 0)
  EXPECT_EQ(path, (std::vector<net::LinkId>{topo.node_tx(0), topo.node_rx(2)}));

  path.clear();
  topo.append_path(0, 1, path);  // cross-rack
  EXPECT_EQ(path,
            (std::vector<net::LinkId>{topo.node_tx(0), topo.rack_up(0),
                                      topo.rack_down(1), topo.node_rx(1)}));
  EXPECT_DOUBLE_EQ(topo.capacity_mbps(topo.rack_up(0)), 150.0);
  EXPECT_DOUBLE_EQ(topo.capacity_mbps(topo.node_tx(0)), 100.0);
}

// --- analytic max-min fixtures ----------------------------------------------

net::TopologySpec one_rack(double node_mbps) {
  net::TopologySpec spec;
  spec.racks = 1;
  spec.node_mbps = node_mbps;
  return spec;
}

TEST(Fabric, EqualFlowsSplitTheBottleneckEvenly) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 8));
  std::map<net::FlowId, Seconds> done;
  std::vector<net::FlowId> ids;
  // Four 100 MB flows from distinct sources into node 7: its 100 MB/s rx
  // access link is the only shared bottleneck, so max-min gives each 25.
  for (net::NodeId src = 0; src < 4; ++src) {
    ids.push_back(fabric.start_flow(
        src, 7, 100.0, 1000.0, net::TransferClass::kShuffle,
        [&](net::FlowId id) { done[id] = sim.now(); }));
  }
  for (net::FlowId id : ids) {
    EXPECT_NEAR(fabric.flow_rate_mbps(id), 25.0, kTol);
  }
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (net::FlowId id : ids) EXPECT_NEAR(done[id], 4.0, kTol);
  EXPECT_EQ(fabric.metrics().flows_completed, 4u);
  EXPECT_NEAR(fabric.metrics().shuffle_mb, 400.0, kTol);
}

TEST(Fabric, PerFlowCapsFreezeAndResidualGoesToTheUncapped) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 8));
  // Caps 10 and 20 freeze below the fair share; the third flow soaks up the
  // rest of the 100 MB/s rx link: water-filling gives {10, 20, 70}.
  const auto a = fabric.start_flow(0, 7, 100.0, 10.0,
                                   net::TransferClass::kRemoteRead, nullptr);
  const auto b = fabric.start_flow(1, 7, 100.0, 20.0,
                                   net::TransferClass::kRemoteRead, nullptr);
  const auto c = fabric.start_flow(2, 7, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 10.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 20.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(c), 70.0, kTol);
}

TEST(Fabric, BottleneckShareMigratesWhenAFlowFinishes) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  std::map<net::FlowId, Seconds> done;
  const auto record = [&](net::FlowId id) { done[id] = sim.now(); };
  const auto a =
      fabric.start_flow(0, 3, 50.0, 1000.0, net::TransferClass::kShuffle,
                        record);
  const auto b =
      fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kShuffle,
                        record);
  // Both get 50 MB/s; A drains its 50 MB at t=1, then B runs at the full
  // 100 MB/s and finishes its remaining 50 MB at t=1.5.
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 50.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 50.0, kTol);
  sim.run();
  EXPECT_NEAR(done[a], 1.0, kTol);
  EXPECT_NEAR(done[b], 1.5, kTol);
}

TEST(Fabric, OversubscribedUplinkSharedAcrossRackPairs) {
  sim::Simulator sim;
  net::Fabric fabric(
      sim, net::Topology(net::TopologySpec::oversubscribed(2, 100.0, 150.0),
                         4));
  // Nodes 0,2 are rack 0; 1,3 are rack 1.  Two cross-rack flows share rack
  // 0's 150 MB/s uplink: 75 MB/s each (under their 100 MB/s access links).
  const auto a = fabric.start_flow(0, 1, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  const auto b = fabric.start_flow(2, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 75.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 75.0, kTol);
  sim.run();
  const auto m = fabric.metrics();
  EXPECT_NEAR(m.peak_link_utilization, 1.0, kTol);  // the uplink saturated
  // Solo each flow would run at 100 MB/s (access-link bound): slowdown 4/3.
  EXPECT_NEAR(m.mean_flow_slowdown, 4.0 / 3.0, kTol);
}

TEST(Fabric, RateRecomputationIsEventDrivenNotPolled) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  fabric.start_flow(0, 3, 50.0, 1000.0, net::TransferClass::kShuffle, nullptr);
  fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kShuffle,
                    nullptr);
  sim.run();
  // Two completions are the only executed events — rates changed exactly at
  // flow start/finish instants, with no periodic recomputation ticks.
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_NEAR(sim.now(), 1.5, kTol);
}

TEST(Fabric, AbortKeepsPartialBytesAndFreesCapacity) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  const auto a = fabric.start_flow(0, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kRemoteRead,
                    nullptr);
  sim.schedule_after(1.0, [&] { fabric.abort_flow(a); });
  sim.run();
  const auto m = fabric.metrics();
  EXPECT_EQ(m.flows_aborted, 1u);
  EXPECT_EQ(m.flows_completed, 1u);
  EXPECT_NEAR(m.shuffle_mb, 50.0, kTol);  // 1 s at the 50 MB/s fair share
  // B: 50 MB in the first second, the remaining 50 MB at 100 MB/s.
  EXPECT_NEAR(m.remote_read_mb, 100.0, kTol);
  EXPECT_NEAR(sim.now(), 1.5, kTol);
  EXPECT_EQ(fabric.active_flows(), 0u);
}

// Counts simulator events scheduled between consecutive fabric callbacks;
// each callback precedes exactly one reallocation, so the largest window is
// the most events a single reallocation scheduled.
class ReallocationWindows final : public sim::SimObserver,
                                  public net::FabricObserver {
 public:
  void on_event_scheduled(Seconds, sim::EventId) override {
    ++scheduled_;
    max_window_ = std::max(max_window_, ++window_);
  }
  void on_event_executed(Seconds, sim::EventId) override {}
  void on_flow_started(net::FlowId, net::TransferClass, Megabytes) override {
    next_window();
  }
  void on_flow_finished(net::FlowId, Megabytes, Megabytes) override {
    next_window();
  }
  void on_flow_aborted(net::FlowId, Megabytes, Megabytes) override {
    next_window();
  }

  std::size_t reallocations() const { return reallocations_; }
  std::size_t scheduled() const { return scheduled_; }
  std::size_t max_window() const { return max_window_; }

 private:
  void next_window() {
    ++reallocations_;
    window_ = 0;
  }

  std::size_t reallocations_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t window_ = 0;
  std::size_t max_window_ = 0;
};

TEST(Fabric, KeepsOnePendingEventWhateverTheFlowCount) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 8));
  ReallocationWindows windows;
  sim.set_observer(&windows);
  fabric.set_observer(&windows);
  // Eight concurrent flows of different sizes: one pending finish event,
  // not one per flow, and no reallocation schedules more than one event.
  std::size_t done = 0;
  for (net::NodeId src = 0; src < 8; ++src) {
    fabric.start_flow(src, (src + 3) % 8, 10.0 * static_cast<double>(src + 1),
                      1000.0, net::TransferClass::kShuffle,
                      [&](net::FlowId) { ++done; });
    EXPECT_EQ(sim.pending(), 1u);
  }
  EXPECT_EQ(fabric.active_flows(), 8u);
  while (sim.step()) {
    EXPECT_EQ(sim.pending(), fabric.active_flows() > 0 ? 1u : 0u);
  }
  EXPECT_EQ(done, 8u);
  EXPECT_EQ(windows.reallocations(), 16u);  // 8 starts + 8 finishes
  EXPECT_EQ(windows.max_window(), 1u);
  EXPECT_EQ(windows.scheduled(), 15u);  // the last finish leaves no flow
  sim.set_observer(nullptr);
  fabric.set_observer(nullptr);
}

TEST(Fabric, ReallocationReArmsBehindSameInstantEvents) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  std::vector<std::string> order;
  // A: 100 MB at cap 50 from node 0 to node 1, due at t=2.
  fabric.start_flow(0, 1, 100.0, 50.0, net::TransferClass::kShuffle,
                    [&](net::FlowId) { order.push_back("A"); });
  // H is scheduled after A's event, for the same instant.
  sim.schedule_at(2.0, [&] { order.push_back("H"); });
  // At t=1 flow C starts on disjoint links: A's rate and finish time stay
  // the same, but the reallocation re-arms A's event behind H, exactly as
  // rescheduling one event per flow would.
  sim.schedule_at(1.0, [&] {
    fabric.start_flow(2, 3, 1000.0, 50.0, net::TransferClass::kShuffle,
                      nullptr);
    EXPECT_EQ(fabric.flow_rate_mbps(1), 50.0);
  });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"H", "A"}));
}

TEST(Fabric, SameInstantFinishesRunInIdOrder) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  std::vector<std::pair<net::FlowId, Seconds>> done;
  const auto record = [&](net::FlowId id) { done.push_back({id, sim.now()}); };
  // Two identical flows into node 3 share its rx link at 50 MB/s each.
  const auto a = fabric.start_flow(0, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, record);
  const auto b = fabric.start_flow(1, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, record);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, a);
  EXPECT_EQ(done[1].first, b);
  EXPECT_EQ(done[0].second, 2.0);
  EXPECT_EQ(done[1].second, 2.0);
}

TEST(Fabric, DestructionCancelsThePendingEvent) {
  sim::Simulator sim;
  sim.schedule_at(100.0, [] {});
  const std::size_t before = sim.pending();
  {
    net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
    fabric.start_flow(0, 3, 100.0, 1000.0, net::TransferClass::kShuffle,
                      nullptr);
    fabric.start_flow(1, 2, 100.0, 1000.0, net::TransferClass::kShuffle,
                      nullptr);
    EXPECT_GT(sim.pending(), before);
  }
  EXPECT_EQ(sim.pending(), before);
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);  // only the unrelated event ran
}

// Observers count the flows a callback's reallocation re-rates from
// active_flows(): a finishing flow is still in it, an ended one is gone.
class ActiveAtCallback final : public net::FabricObserver {
 public:
  explicit ActiveAtCallback(const net::Fabric& fabric) : fabric_(fabric) {}
  void on_flow_started(net::FlowId id, net::TransferClass, Megabytes) override {
    log.push_back({id, fabric_.active(id), fabric_.active_flows()});
  }
  void on_flow_finished(net::FlowId id, Megabytes, Megabytes) override {
    log.push_back({id, fabric_.active(id), fabric_.active_flows()});
  }
  void on_flow_aborted(net::FlowId id, Megabytes, Megabytes) override {
    log.push_back({id, fabric_.active(id), fabric_.active_flows()});
  }

  struct Seen {
    net::FlowId id;
    bool active;
    std::size_t flows;
  };
  std::vector<Seen> log;

 private:
  const net::Fabric& fabric_;
};

TEST(Fabric, ObserverSeesAFinishingFlowActiveAndAnEndedOneGone) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  ActiveAtCallback seen(fabric);
  fabric.set_observer(&seen);
  const net::FlowId a = fabric.start_flow(0, 1, 10.0, 100.0,
                                          net::TransferClass::kShuffle,
                                          nullptr);
  const net::FlowId b = fabric.start_flow(2, 3, 500.0, 100.0,
                                          net::TransferClass::kShuffle,
                                          nullptr);
  const net::FlowId c = fabric.start_flow(1, 2, 500.0, 100.0,
                                          net::TransferClass::kShuffle,
                                          nullptr);
  fabric.abort_flow(b);
  ASSERT_TRUE(sim.step());  // a finishes first
  fabric.fail_flow(c);
  fabric.set_observer(nullptr);
  ASSERT_EQ(seen.log.size(), 6u);
  const std::size_t flows[] = {1, 2, 3, 2, 2, 0};
  const net::FlowId ids[] = {a, b, c, b, a, c};
  const bool active[] = {true, true, true, false, true, false};
  for (std::size_t i = 0; i < seen.log.size(); ++i) {
    EXPECT_EQ(seen.log[i].id, ids[i]) << i;
    EXPECT_EQ(seen.log[i].active, active[i]) << i;
    EXPECT_EQ(seen.log[i].flows, flows[i]) << i;
  }
}

TEST(Fabric, DeterministicUnderIdenticalCallSequences) {
  const auto run_once = [] {
    sim::Simulator sim;
    net::Fabric fabric(
        sim, net::Topology(net::TopologySpec::oversubscribed(4), 16));
    std::vector<Seconds> completions;
    for (std::size_t i = 0; i < 12; ++i) {
      fabric.start_flow(i, (i + 5) % 16, 10.0 + i, 40.0,
                        net::TransferClass::kShuffle,
                        [&](net::FlowId) { completions.push_back(sim.now()); });
    }
    sim.run();
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- end-to-end: parity, ordering, recovery ---------------------------------

exp::RunConfig net_config(std::uint64_t seed = 7) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.noise = mr::NoiseConfig::typical();
  return cfg;
}

exp::RunMetrics run_small(exp::SchedulerKind kind, exp::RunConfig cfg,
                          workload::AppKind app = workload::AppKind::kTerasort) {
  exp::Run run(exp::paper_fleet(), kind, cfg);
  run.submit(exp::job_batch(app, 3000.0, 8, 3));
  run.execute();
  return run.metrics();
}

TEST(FabricIntegration, FlatTopologyReproducesLegacyScalarTiming) {
  const auto legacy = run_small(exp::SchedulerKind::kFair, net_config());
  auto cfg = net_config();
  cfg.topology = net::TopologySpec::flat();
  const auto flat = run_small(exp::SchedulerKind::kFair, cfg);

  // On one flat rack with unlimited links the per-flow caps reproduce the
  // scalar transfer times exactly; tiny deviations can only come from
  // event-ordering ties, so makespan and energy agree within 1%.
  EXPECT_FALSE(legacy.fabric_active);
  EXPECT_TRUE(flat.fabric_active);
  EXPECT_NEAR(flat.makespan / legacy.makespan, 1.0, 0.01);
  EXPECT_NEAR(flat.total_energy / legacy.total_energy, 1.0, 0.01);
  EXPECT_GT(flat.network.shuffle_mb, 0.0);
  EXPECT_GE(flat.network.mean_flow_slowdown, 1.0 - kTol);
  EXPECT_NEAR(flat.network.mean_flow_slowdown, 1.0, 1e-3);  // nothing binds
}

TEST(FabricIntegration, OversubscriptionHurtsShuffleHeavyAppsMost) {
  // Fig. 1(d): Wordcount is map-heavy while Grep and Terasort move most of
  // their bytes in the shuffle, so a contended fabric must stretch the
  // latter two more.  Completion ratio = oversubscribed / flat, per app.
  std::map<workload::AppKind, double> ratio;
  for (workload::AppKind app :
       {workload::AppKind::kWordcount, workload::AppKind::kGrep,
        workload::AppKind::kTerasort}) {
    auto flat_cfg = net_config();
    flat_cfg.topology = net::TopologySpec::flat();
    const auto flat = run_small(exp::SchedulerKind::kFair, flat_cfg, app);
    auto over_cfg = net_config();
    over_cfg.topology = net::TopologySpec::oversubscribed();
    const auto over = run_small(exp::SchedulerKind::kFair, over_cfg, app);
    ratio[app] = over.mean_completion() / flat.mean_completion();
  }
  EXPECT_GT(ratio[workload::AppKind::kGrep],
            ratio[workload::AppKind::kWordcount]);
  EXPECT_GT(ratio[workload::AppKind::kTerasort],
            ratio[workload::AppKind::kWordcount]);
}

TEST(FabricIntegration, CrashedServerFlowsAbortAndWorkRetransfers) {
  auto cfg = net_config(11);
  cfg.topology = net::TopologySpec::oversubscribed();
  // Take down two machines mid-run (with transfers in flight) and bring
  // them back: their in-flight transfers must abort, re-queued work
  // re-transfers from surviving sources, and every job still completes.
  cfg.faults.crash_for(2, 60.0, 400.0);
  cfg.faults.crash_for(9, 120.0, 400.0);
  cfg.job_tracker.tracker_expiry_window = 30.0;

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 4));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), 4u);
  EXPECT_GT(m.killed_attempts, 0u);
  EXPECT_GT(m.network.flows_aborted, 0u);
  EXPECT_GT(
      run.job_tracker().counters().retransferred_flows + m.lost_map_outputs,
      0u);
}

}  // namespace
}  // namespace eant
