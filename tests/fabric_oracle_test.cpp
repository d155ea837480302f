// Differential test of the fabric's max-min allocator and its one pending
// event against a reference: the original progressive-filling loop, kept
// here verbatim (only its inputs became parameters).  Random topologies,
// flow sets, caps, aborts, fault kills and link factors; after every
// operation each active flow's rate must equal the reference's bit for bit,
// and the next simulator step must end the flow with the earliest projected
// finish at exactly that time.  Besides distinct caps and small flow sets,
// scenarios draw caps from a few repeated values (as the JobTracker's
// constant caps repeat) and keep a few hundred flows live, on contended and
// on all-unlimited topologies.  A last family makes its changes in bursts
// inside one simulator event, where the fabric settles once per event: it
// checks the rates and the next finish at event boundaries, the
// utilisation peak against the reference's over every intermediate state,
// and the number of water-fillings.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
/// Returns the rates in the same order and, when `loads` is set, each
/// link's summed increments.
std::vector<double> reference_rates(const std::vector<double>& eff,
                                    const std::vector<RefFlow>& flows,
                                    std::vector<double>* loads = nullptr) {
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
  if (loads != nullptr) *loads = std::move(link_load);
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
        caps_(std::move(caps)) {
    for (net::LinkId link = 0; link < topo_.num_links(); ++link)
      finite_ = finite_ || std::isfinite(topo_.capacity_mbps(link));
  }

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

  /// Returns whether the factor moved (and the fabric reallocated).
  bool set_factor(double min_factor = 0.0) {
    const net::LinkId link = below(rng_, topo_.num_links());
    const double u = rng_.uniform();
    const double factor = u < 0.2   ? 0.0
                          : u < 0.4 ? 1.0
                                    : rng_.uniform(min_factor, 1.0);
    const double before = fabric_.link_factor(link);
    fabric_.set_link_factor(link, factor);
    // Flows a dead link strands stay live until their fail event runs.
    return std::bit_cast<std::uint64_t>(fabric_.link_factor(link)) !=
           std::bit_cast<std::uint64_t>(before);
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
    const Due due = next_due(&stats_.ties);
    EXPECT_TRUE(sim_.step());
    ++(due.fails ? stats_.stranded : stats_.finished);
    EXPECT_EQ(sim_.now(), due.at);
    EXPECT_EQ(ended_.size(), 1u);
    if (!ended_.empty()) {
      EXPECT_EQ(ended_.front().id, due.id);
      EXPECT_EQ(ended_.front().failed, due.fails);
    }
    ended_.clear();
    live_.erase(due.id);
    EXPECT_FALSE(fabric_.active(due.id));
    return true;
  }

  // --- changes in bursts inside one simulator event -------------------------
  // The fabric's filling count and utilisation peak are followed from the
  // outside: the peak over the reference allocation of every state the
  // flows pass through, and one expected filling per reallocation while
  // the fabric's peak can still rise (some link is finite and the peak is
  // below 1), else one per event.

  /// Runs `n` random changes (starts, aborts, fault kills, link factors no
  /// lower than `min_factor` unless 0) inside one simulator event at the
  /// current instant.  Returns false, running nothing, when a flow is due
  /// now: its event would run first.
  bool burst(int n, double min_factor) {
    if (!live_.empty() && next_due().at <= sim_.now()) return false;
    const std::size_t fillings = fabric_.metrics().fillings;
    bool was_eager = false;
    bool now_deferred = false;
    sim_.schedule_at(sim_.now(), [&] {
      for (int i = 0; i < n; ++i) {
        const bool eager = settles_each_change();
        (eager ? was_eager : now_deferred) = true;
        const double u = rng_.uniform();
        bool changed = true;
        if (u < 0.5 || live_.empty()) {
          start();
        } else if (u < 0.65) {
          abort();
        } else if (u < 0.75) {
          fail();
        } else {
          changed = set_factor(min_factor);
        }
        if (changed) reallocated(eager);
      }
    });
    EXPECT_TRUE(sim_.step());
    event_ended();
    ++(was_eager && now_deferred ? stats_.bursts_switched
       : was_eager               ? stats_.bursts_eager
                                 : stats_.bursts_deferred);
    stats_.burst_changes += static_cast<std::size_t>(n);
    stats_.burst_fillings += fabric_.metrics().fillings - fillings;
    return true;
  }

  /// step_and_check with the reallocation its event makes accounted.
  bool step_tracked() {
    const bool eager = settles_each_change();
    if (!step_and_check()) return false;
    reallocated(eager);
    event_ended();
    return true;
  }

  /// Between events: fillings and peak as followed, then the rates (the
  /// fabric settled when the event ended, so reading them fills nothing).
  void check_boundary() {
    const net::FabricMetrics m = fabric_.metrics();
    EXPECT_EQ(m.fillings, want_fillings_);
    EXPECT_EQ(m.peak_link_utilization, want_peak_);
    check_rates();
    EXPECT_EQ(fabric_.metrics().fillings, m.fillings)
        << "rates read at an event boundary were not settled";
  }

  double peak() const { return fabric_.metrics().peak_link_utilization; }
  bool has_finite_link() const { return finite_; }

  struct Stats {
    std::size_t compared = 0;    // rates checked against the reference
    std::size_t link_bound = 0;  // ... of which a link held below the cap
    std::size_t shared_cap = 0;  // ... of which another live flow had its cap
    std::size_t finished = 0;    // steps that finished the predicted flow
    std::size_t stranded = 0;    // steps that failed a stranded flow
    std::size_t ties = 0;        // flows due at the same instant as another
    std::size_t peak_live = 0;
    std::size_t bursts_eager = 0;     // settled at every change
    std::size_t bursts_deferred = 0;  // settled once, at the end
    std::size_t bursts_switched = 0;  // the peak reached 1 mid-burst
    std::size_t burst_changes = 0;
    std::size_t burst_fillings = 0;

    void add(const Stats& o) {
      compared += o.compared;
      link_bound += o.link_bound;
      shared_cap += o.shared_cap;
      finished += o.finished;
      stranded += o.stranded;
      ties += o.ties;
      peak_live = std::max(peak_live, o.peak_live);
      bursts_eager += o.bursts_eager;
      bursts_deferred += o.bursts_deferred;
      bursts_switched += o.bursts_switched;
      burst_changes += o.burst_changes;
      burst_fillings += o.burst_fillings;
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

  struct Due {
    net::FlowId id = 0;
    Seconds at = 0.0;
    bool fails = false;
  };

  /// The live flow with the earliest projected finish, by the fabric's
  /// rates (which check_rates compares with the reference); counts flows
  /// due at the same instant as the earliest so far into `ties`.
  Due next_due(std::size_t* ties = nullptr) {
    Due due;
    for (const auto& [id, ends] : live_) {
      const Megabytes remaining = fabric_.flow_remaining_mb(id);
      const double rate = fabric_.flow_rate_mbps(id);
      const bool stranded = remaining > 0.0 && rate <= kRateTol;
      const Seconds at = sim_.now() + (stranded ? 0.0 : remaining / rate);
      if (ties != nullptr && due.id != 0 && at == due.at) ++*ties;
      if (due.id == 0 || at < due.at) due = Due{id, at, stranded};
    }
    return due;
  }

  bool settles_each_change() const { return finite_ && peak() < 1.0; }

  /// One reallocation over the flows now live; `eager` was read before it.
  void reallocated(bool eager) {
    if (live_.empty()) {
      deferred_ = false;  // no flows, no pending event, nothing to settle
      return;
    }
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
    std::vector<double> loads;
    reference_rates(eff, flows, &loads);
    for (net::LinkId link = 0; link < eff.size(); ++link) {
      if (!std::isfinite(eff[link]) || eff[link] <= 0.0 || loads[link] <= 0.0)
        continue;
      want_peak_ = std::max(want_peak_, std::min(1.0, loads[link] / eff[link]));
    }
    if (eager) ++want_fillings_;
    deferred_ = !eager;
  }

  void event_ended() {
    if (deferred_) ++want_fillings_;
    deferred_ = false;
  }

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
  bool finite_ = false;      // some link has a finite capacity
  double want_peak_ = 0.0;   // max over every state's reference allocation
  std::size_t want_fillings_ = 0;
  bool deferred_ = false;    // the last reallocation waits for the event end
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

// Changes in bursts of 2-40 inside one simulator event, where the fabric
// settles once at the end of the event unless its utilisation peak can
// still rise.  Four topology kinds: oversubscribed with the JobTracker's
// caps (the peak pins at 1 early, often mid-burst), light links and small
// caps with factors kept at 0.5 or more (the peak stays below 1, so every
// change settles), flat (no finite link: every burst defers), and a random
// one with a third of its links degraded or down from the start.
TEST(FabricOracle, BurstsInsideOneEventSettleOnceAndMatchTheReference) {
  constexpr int kScenarios = 48;
  constexpr int kRounds = 60;
  constexpr std::size_t kMaxLive = 60;
  const std::vector<double> kJobTrackerCaps = {10.0, 20.0, 40.0};
  Rng rng(20261019);
  Scenario::Stats total;
  std::size_t pinned = 0;      // scenarios whose peak reached 1
  std::size_t below_one = 0;   // ... that stayed below it, with finite links
  for (int s = 0; s < kScenarios; ++s) {
    const int kind = s % 4;
    net::TopologySpec spec = kind == 0   ? net::TopologySpec::oversubscribed()
                             : kind == 2 ? net::TopologySpec::flat()
                                         : random_spec(rng);
    std::vector<double> caps;
    double min_factor = 0.0;
    if (kind == 0) caps = kJobTrackerCaps;
    if (kind == 1) {
      spec.node_mbps = rng.uniform(2000.0, 4000.0);
      spec.rack_uplink_mbps = rng.uniform(8000.0, 16000.0);
      caps = {rng.uniform(1.0, 30.0), rng.uniform(1.0, 30.0)};
      min_factor = 0.5;
    }
    Scenario sc(rng, spec, 2 + below(rng, 39), std::move(caps));
    if (kind == 3) {
      const std::size_t degraded = 1 + below(rng, 8);
      for (std::size_t i = 0; i < degraded; ++i) sc.set_factor();
    }
    for (int r = 0; r < kRounds; ++r) {
      const bool bursted = sc.live() <= kMaxLive && rng.uniform() < 0.7 &&
                           sc.burst(2 + static_cast<int>(below(rng, 39)),
                                    min_factor);
      if (!bursted) sc.step_tracked();
      sc.check_boundary();
      if (HasFailure()) return;
    }
    while (sc.step_tracked()) {
      sc.check_boundary();
      if (HasFailure()) return;
    }
    if (sc.peak() >= 1.0) ++pinned;
    if (sc.has_finite_link() && sc.peak() < 1.0) ++below_one;
    total.add(sc.stats());
  }
  std::printf("%zu bursts (%zu settled at every change, %zu once at the "
              "end, %zu switching when the peak reached 1) made %zu changes "
              "with %zu fillings; %zu scenarios pinned the peak at 1, %zu "
              "kept it below 1\n",
              total.bursts_eager + total.bursts_deferred +
                  total.bursts_switched,
              total.bursts_eager, total.bursts_deferred,
              total.bursts_switched, total.burst_changes,
              total.burst_fillings, pinned, below_one);
  total.print();
  EXPECT_GT(total.bursts_eager, 0u);
  EXPECT_GT(total.bursts_deferred, 0u);
  EXPECT_GT(total.bursts_switched, 0u);
  EXPECT_GT(pinned, 0u);
  EXPECT_GT(below_one, 0u);
  EXPECT_GT(total.stranded, 0u);
  EXPECT_GT(total.link_bound, 0u);
  EXPECT_LT(total.burst_fillings, total.burst_changes / 2);
}

}  // namespace
}  // namespace eant
