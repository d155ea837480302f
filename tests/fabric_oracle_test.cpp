// Differential test of the fabric's max-min allocator and its one pending
// event against a reference: the original progressive-filling loop, kept
// here verbatim (only its inputs became parameters).  Random topologies,
// flow sets, caps, aborts, fault kills and link factors; after every
// operation each active flow's rate must equal the reference's bit for bit,
// and the next simulator step must end the flow with the earliest projected
// finish at exactly that time.

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
/// record of which flows are live and how each one ended.
class Scenario {
 public:
  Scenario(Rng& rng, net::TopologySpec spec, std::size_t nodes)
      : rng_(rng), topo_(spec, nodes), fabric_(sim_, topo_) {}

  void start() {
    const std::size_t n = topo_.num_nodes();
    const net::NodeId src = below(rng_, n);
    net::NodeId dst = below(rng_, n - 1);
    if (dst >= src) ++dst;
    const Megabytes mb = rng_.uniform(1.0, 500.0);
    const double cap = rng_.uniform(1.0, 1000.0);
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
    std::size_t i = 0;
    for (const auto& [id, ends] : live_) {
      EXPECT_EQ(fabric_.flow_rate_mbps(id), want[i]) << "flow " << id;
      ++stats_.compared;
      if (want[i] < flows[i].cap_mbps - kRateTol) ++stats_.link_bound;
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
    std::size_t finished = 0;    // steps that finished the predicted flow
    std::size_t stranded = 0;    // steps that failed a stranded flow
    std::size_t ties = 0;        // flows due at the same instant as another
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

TEST(FabricOracle, RatesAndNextFinishMatchTheReference) {
  constexpr int kScenarios = 150;
  constexpr int kOpsPerScenario = 150;
  constexpr std::size_t kMaxLive = 40;
  Rng rng(20241017);
  Scenario::Stats total;
  std::size_t peak_live = 0;
  for (int s = 0; s < kScenarios; ++s) {
    const net::TopologySpec spec = random_spec(rng);
    Scenario sc(rng, spec, 2 + below(rng, 39));
    for (int op = 0; op < kOpsPerScenario; ++op) {
      const double u = rng.uniform();
      if (u < 0.55) {
        sc.start();
      } else if (u < 0.65) {
        sc.abort();
      } else if (u < 0.72) {
        sc.fail();
      } else if (u < 0.82) {
        sc.set_factor();
      } else {
        sc.step_and_check();
      }
      sc.check_rates();
      peak_live = std::max(peak_live, sc.live());
      if (sc.live() > kMaxLive) sc.step_and_check();
      if (HasFailure()) return;
    }
    while (sc.step_and_check()) {
      sc.check_rates();
      if (HasFailure()) return;
    }
    total.compared += sc.stats().compared;
    total.link_bound += sc.stats().link_bound;
    total.finished += sc.stats().finished;
    total.stranded += sc.stats().stranded;
    total.ties += sc.stats().ties;
  }
  // The scenarios must exercise contention, stranding and same-instant
  // finishes, not just idle single flows.
  EXPECT_GE(peak_live, 20u);
  EXPECT_GT(total.link_bound, total.compared / 4);
  EXPECT_GT(total.finished, 5000u);
  EXPECT_GT(total.stranded, 100u);
  EXPECT_GT(total.ties, 0u);
  std::printf("compared %zu rates (%zu link-bound), %zu finishes, "
              "%zu stranded fails, %zu ties, peak %zu live flows\n",
              total.compared, total.link_bound, total.finished,
              total.stranded, total.ties, peak_live);
}

}  // namespace
}  // namespace eant
