// Differential test of the fabric's max-min allocator and its one pending
// event against a reference: the original progressive-filling loop, kept
// here verbatim (only its inputs became parameters).  Random topologies,
// flow sets, caps, aborts, fault kills and link factors; after every
// operation each active flow's rate must equal the reference's bit for bit,
// and the next simulator step must end the flow with the earliest projected
// finish at exactly that time.  Besides distinct caps and small flow sets,
// scenarios draw caps from a few repeated values (as the JobTracker's
// constant caps repeat) and keep a few hundred flows live, on contended and
// on all-unlimited topologies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace eant {
namespace {

// The fabric's saturation slack (MB/s): a link within it of its capacity
// counts as saturated, a flow within it of its cap as capped.
constexpr double kRateTol = 1e-9;

struct RefFlow {
  std::vector<net::LinkId> path;
  double cap_mbps = 0.0;
};

/// Progressive filling as Fabric::reallocate ran it before it kept a flat
/// list of unfrozen flows: `eff` holds each link's effective capacity
/// (+inf when it cannot bind, 0 when down), `flows` are in id order.
/// Returns the rates in the same order.
std::vector<double> reference_rates(const std::vector<double>& eff,
                                    const std::vector<RefFlow>& flows) {
  const auto binds = [&](net::LinkId link) { return std::isfinite(eff[link]); };
  std::vector<double> link_load(eff.size(), 0.0);
  std::vector<std::size_t> link_active(eff.size(), 0);
  std::vector<double> rate(flows.size(), 0.0);

  std::size_t unfrozen = 0;
  for (const RefFlow& flow : flows) {
    ++unfrozen;
    for (net::LinkId link : flow.path) ++link_active[link];
  }

  std::vector<bool> frozen(flows.size(), false);
  while (unfrozen > 0) {
    double inc = net::kUnlimitedMbps;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!frozen[i]) inc = std::min(inc, flows[i].cap_mbps - rate[i]);
    }
    for (net::LinkId link = 0; link < link_load.size(); ++link) {
      if (link_active[link] == 0 || !binds(link)) continue;
      const double residual = eff[link] - link_load[link];
      inc = std::min(inc, residual / static_cast<double>(link_active[link]));
    }
    inc = std::max(inc, 0.0);

    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!frozen[i]) {
        rate[i] = std::isinf(inc) ? flows[i].cap_mbps : rate[i] + inc;
        for (net::LinkId link : flows[i].path) link_load[link] += inc;
      }
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (!frozen[i]) {
        bool stop = rate[i] >= flows[i].cap_mbps - kRateTol;
        for (net::LinkId link : flows[i].path) {
          if (binds(link) && link_load[link] >= eff[link] - kRateTol)
            stop = true;
        }
        if (stop) {
          frozen[i] = true;
          --unfrozen;
          for (net::LinkId link : flows[i].path) --link_active[link];
        }
      }
    }
  }
  return rate;
}

/// Uniform index in [0, n).
std::size_t below(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One random scenario: a topology, a fabric over it, and the test's own
/// record of which flows are live and how each one ended.  Caps are drawn
/// from `caps`, or from uniform(1, 1000) when it is empty.
class Scenario {
 public:
  Scenario(Rng& rng, net::TopologySpec spec, std::size_t nodes,
           std::vector<double> caps = {})
      : rng_(rng),
        topo_(spec, nodes),
        fabric_(sim_, topo_),
        caps_(std::move(caps)) {}

  void start() {
    const std::size_t n = topo_.num_nodes();
    const net::NodeId src = below(rng_, n);
    net::NodeId dst = below(rng_, n - 1);
    if (dst >= src) ++dst;
    const Megabytes mb = rng_.uniform(1.0, 500.0);
    const double cap = caps_.empty() ? rng_.uniform(1.0, 1000.0)
                                     : caps_[below(rng_, caps_.size())];
    const net::FlowId id = fabric_.start_flow(
        src, dst, mb, cap, net::TransferClass::kShuffle,
        [this](net::FlowId done) { ended_.push_back({done, false}); },
        [this](net::FlowId done, Megabytes) {
          ended_.push_back({done, true});
        });
    live_[id] = {src, dst};
  }

  void abort() {
    if (const net::FlowId id = pick()) {
      fabric_.abort_flow(id);
      live_.erase(id);
    }
  }

  void fail() {
    if (const net::FlowId id = pick()) {
      fabric_.fail_flow(id);
      EXPECT_EQ(ended_.size(), 1u);
      ended_.clear();
      live_.erase(id);
    }
  }

  void set_factor() {
    const net::LinkId link = below(rng_, topo_.num_links());
    const double u = rng_.uniform();
    const double factor = u < 0.2 ? 0.0 : u < 0.4 ? 1.0 : rng_.uniform();
    fabric_.set_link_factor(link, factor);
    // Flows a dead link strands stay live until their fail event runs.
  }

  /// Every live flow's rate equals the reference allocation.
  void check_rates() {
    ASSERT_EQ(fabric_.active_flows(), live_.size());
    stats_.peak_live = std::max(stats_.peak_live, live_.size());
    std::vector<double> eff(topo_.num_links());
    for (net::LinkId link = 0; link < eff.size(); ++link)
      eff[link] = fabric_.effective_capacity_mbps(link);
    std::vector<RefFlow> flows;
    for (const auto& [id, ends] : live_) {
      RefFlow f;
      topo_.append_path(ends.first, ends.second, f.path);
      f.cap_mbps = fabric_.flow_cap_mbps(id);
      flows.push_back(std::move(f));
    }
    const std::vector<double> want = reference_rates(eff, flows);
    std::map<double, std::size_t> cap_count;
    for (const RefFlow& f : flows) ++cap_count[f.cap_mbps];
    std::size_t i = 0;
    for (const auto& [id, ends] : live_) {
      EXPECT_EQ(fabric_.flow_rate_mbps(id), want[i]) << "flow " << id;
      ++stats_.compared;
      if (want[i] < flows[i].cap_mbps - kRateTol) ++stats_.link_bound;
      if (cap_count[flows[i].cap_mbps] > 1) ++stats_.shared_cap;
      ++i;
    }
  }

  /// Runs the next simulator event and checks it ended the flow with the
  /// earliest projected finish (lowest id on ties) at exactly that time; a
  /// flow stranded at rate ~0 fails at `now`.  Returns false when no flow
  /// was live.
  bool step_and_check() {
    if (live_.empty()) {
      EXPECT_EQ(sim_.pending(), 0u);
      return false;
    }
    EXPECT_EQ(sim_.pending(), 1u);
    net::FlowId due = 0;
    Seconds due_at = 0.0;
    bool due_fails = false;
    for (const auto& [id, ends] : live_) {
      const Megabytes remaining = fabric_.flow_remaining_mb(id);
      const double rate = fabric_.flow_rate_mbps(id);
      const bool stranded = remaining > 0.0 && rate <= kRateTol;
      const Seconds at = sim_.now() + (stranded ? 0.0 : remaining / rate);
      if (due != 0 && at == due_at) ++stats_.ties;
      if (due == 0 || at < due_at) {
        due = id;
        due_at = at;
        due_fails = stranded;
      }
    }
    EXPECT_TRUE(sim_.step());
    ++(due_fails ? stats_.stranded : stats_.finished);
    EXPECT_EQ(sim_.now(), due_at);
    EXPECT_EQ(ended_.size(), 1u);
    if (!ended_.empty()) {
      EXPECT_EQ(ended_.front().id, due);
      EXPECT_EQ(ended_.front().failed, due_fails);
    }
    ended_.clear();
    live_.erase(due);
    EXPECT_FALSE(fabric_.active(due));
    return true;
  }

  struct Stats {
    std::size_t compared = 0;    // rates checked against the reference
    std::size_t link_bound = 0;  // ... of which a link held below the cap
    std::size_t shared_cap = 0;  // ... of which another live flow had its cap
    std::size_t finished = 0;    // steps that finished the predicted flow
    std::size_t stranded = 0;    // steps that failed a stranded flow
    std::size_t ties = 0;        // flows due at the same instant as another
    std::size_t peak_live = 0;

    void add(const Stats& o) {
      compared += o.compared;
      link_bound += o.link_bound;
      shared_cap += o.shared_cap;
      finished += o.finished;
      stranded += o.stranded;
      ties += o.ties;
      peak_live = std::max(peak_live, o.peak_live);
    }
    void print() const {
      std::printf("compared %zu rates (%zu link-bound, %zu sharing a cap), "
                  "%zu finishes, %zu stranded fails, %zu ties, peak %zu "
                  "live flows\n",
                  compared, link_bound, shared_cap, finished, stranded, ties,
                  peak_live);
    }
  };

  std::size_t live() const { return live_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Ended {
    net::FlowId id;
    bool failed;
  };

  net::FlowId pick() {
    if (live_.empty()) return 0;
    auto it = live_.begin();
    std::advance(it, below(rng_, live_.size()));
    return it->first;
  }

  Rng& rng_;
  sim::Simulator sim_;
  net::Topology topo_;
  net::Fabric fabric_;
  std::vector<double> caps_;
  std::map<net::FlowId, std::pair<net::NodeId, net::NodeId>> live_;
  std::vector<Ended> ended_;
  Stats stats_;
};

net::TopologySpec random_spec(Rng& rng) {
  net::TopologySpec spec;
  spec.racks = 1 + below(rng, 6);
  spec.node_mbps = rng.bernoulli(0.2) ? net::kUnlimitedMbps
                                      : rng.uniform(10.0, 200.0);
  spec.rack_uplink_mbps = rng.bernoulli(0.2) ? net::kUnlimitedMbps
                                             : rng.uniform(5.0, 400.0);
  return spec;
}

/// Runs `ops` random operations on a scenario, checking every rate after
/// each, then drains it.  An operation starts a flow with probability
/// `start_share`; whenever more than `max_live` flows are live, the next
/// one finishes.  Returns false once a check failed.
bool drive(Scenario& sc, Rng& rng, int ops, double start_share,
           std::size_t max_live) {
  for (int op = 0; op < ops; ++op) {
    const double u = rng.uniform();
    if (u < start_share) {
      sc.start();
    } else if (u < start_share + 0.10) {
      sc.abort();
    } else if (u < start_share + 0.17) {
      sc.fail();
    } else if (u < start_share + 0.27) {
      sc.set_factor();
    } else {
      sc.step_and_check();
    }
    sc.check_rates();
    if (sc.live() > max_live) sc.step_and_check();
    if (::testing::Test::HasFailure()) return false;
  }
  while (sc.step_and_check()) {
    sc.check_rates();
    if (::testing::Test::HasFailure()) return false;
  }
  return true;
}

TEST(FabricOracle, RatesAndNextFinishMatchTheReference) {
  constexpr int kScenarios = 150;
  constexpr int kOpsPerScenario = 150;
  constexpr std::size_t kMaxLive = 40;
  Rng rng(20241017);
  Scenario::Stats total;
  for (int s = 0; s < kScenarios; ++s) {
    const net::TopologySpec spec = random_spec(rng);
    Scenario sc(rng, spec, 2 + below(rng, 39));
    if (!drive(sc, rng, kOpsPerScenario, 0.55, kMaxLive)) return;
    total.add(sc.stats());
  }
  // The scenarios must exercise contention, stranding and same-instant
  // finishes, not just idle single flows.
  EXPECT_GE(total.peak_live, 20u);
  EXPECT_GT(total.link_bound, total.compared / 4);
  EXPECT_GT(total.finished, 5000u);
  EXPECT_GT(total.stranded, 100u);
  EXPECT_GT(total.ties, 0u);
  total.print();
}

// Caps drawn from a few repeated values put many flows on one cap, so the
// fabric must freeze and remove exactly the right one among equals.  Dense
// scenarios keep a few hundred flows live, so a link carries hundreds of
// flows; on an all-unlimited topology only the caps (and the links a fault
// takes down) bind, and with distinct caps every flow freezes alone.
TEST(FabricOracle, EqualCapsAndDenseFlowSetsMatchTheReference) {
  constexpr int kSparse = 40;
  constexpr int kDense = 8;
  const std::vector<double> kJobTrackerCaps = {10.0, 20.0, 40.0};
  Rng rng(20261017);
  Scenario::Stats sparse;
  Scenario::Stats dense;
  for (int s = 0; s < kSparse + kDense; ++s) {
    const bool is_dense = s >= kSparse;
    // Sparse: the JobTracker's constants or a random palette of two to four
    // caps, alternately.  Dense, in turn: the constants on a contended and
    // on an unlimited topology, a palette on a contended one, and distinct
    // caps on an unlimited one.
    const int kind = is_dense ? (s - kSparse) % 4 : s % 2 * 2;
    net::TopologySpec spec = random_spec(rng);
    if (kind % 2 == 1) {
      spec.node_mbps = net::kUnlimitedMbps;
      spec.rack_uplink_mbps = net::kUnlimitedMbps;
    }
    std::vector<double> caps;
    if (kind < 2) caps = kJobTrackerCaps;
    if (kind == 2) {
      caps.resize(2 + below(rng, 3));
      for (double& cap : caps) cap = rng.uniform(1.0, 1000.0);
    }
    Scenario sc(rng, spec, 2 + below(rng, 39), std::move(caps));
    const bool ok = is_dense ? drive(sc, rng, 500, 0.75, 300)
                             : drive(sc, rng, 150, 0.55, 40);
    if (!ok) return;
    (is_dense ? dense : sparse).add(sc.stats());
  }
  EXPECT_GT(sparse.shared_cap, sparse.compared / 2);
  EXPECT_GT(sparse.link_bound, sparse.compared / 4);
  EXPECT_GT(sparse.stranded, 0u);
  EXPECT_GE(dense.peak_live, 250u);
  EXPECT_GT(dense.shared_cap, 0u);
  EXPECT_GT(dense.link_bound, 0u);
  EXPECT_GT(dense.ties, 0u);
  sparse.print();
  dense.print();
}

}  // namespace
}  // namespace eant
