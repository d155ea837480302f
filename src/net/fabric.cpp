#include "net/fabric.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/fp.h"

namespace eant::net {
namespace {

// Absolute slack (MB/s) below which a link counts as saturated and a flow as
// capped during progressive filling.  Capacities are O(10..1000) MB/s, so
// this is ~12 digits below the working range — far inside the 1e-6 analytic
// tolerance the tests assert.
constexpr double kRateTol = 1e-9;

}  // namespace

Fabric::Fabric(sim::Simulator& sim, Topology topology)
    : sim_(sim), topo_(std::move(topology)) {
  link_cap_.resize(topo_.num_links());
  link_load_.resize(topo_.num_links());
  link_active_.resize(topo_.num_links());
  link_flows_.resize(topo_.num_links());
  link_factor_.assign(topo_.num_links(), 1.0);
  for (LinkId link = 0; link < topo_.num_links(); ++link)
    if (std::isfinite(topo_.capacity_mbps(link))) has_finite_link_ = true;
}

Fabric::~Fabric() {
  // The pending event captures `this`; never let it outlive us.
  sim_.cancel(event_);
}

FlowId Fabric::start_flow(NodeId src, NodeId dst, Megabytes mb, double cap_mbps,
                          TransferClass cls,
                          std::function<void(FlowId)> on_complete,
                          FailureHandler on_failed) {
  EANT_CHECK(src != dst, "loopback transfers do not enter the fabric");
  EANT_CHECK(mb > 0.0, "flow size must be positive");
  EANT_CHECK(cap_mbps > 0.0 && std::isfinite(cap_mbps),
             "flow rate cap must be positive and finite");

  advance_all();

  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.total = mb;
  flow.cap_mbps = cap_mbps;
  flow.started = sim_.now();
  flow.cls = cls;
  flow.on_complete = std::move(on_complete);
  flow.on_failed = std::move(on_failed);

  // Keep the full path: a link that is unlimited today can be degraded or
  // killed by a fault tomorrow, so in-flight flows must remember every link
  // they cross.  Links that cannot bind are skipped inside settle().
  topo_.append_path(src, dst, flow.path);
  flow.solo_mbps = cap_mbps;
  for (LinkId link : flow.path) {
    const double eff = effective_capacity_mbps(link);
    if (std::isfinite(eff)) flow.solo_mbps = std::min(flow.solo_mbps, eff);
  }

  const FlowId id = next_id_++;
  flow.id = id;
  Flow& live = flows_.emplace(id, std::move(flow)).first->second;
  // The new id is the largest, so it goes after every equal cap.
  cap_order_.insert(std::upper_bound(cap_order_.begin(), cap_order_.end(),
                                     &live, cap_before),
                    &live);
  for (LinkId link : live.path) link_flows_[link].push_back(&live);
  if (observer_) observer_->on_flow_started(id, cls, mb);
  reallocate();
  return id;
}

void Fabric::abort_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  advance_all();  // credit the bytes that did arrive before the abort
  ++aborted_;
  const Flow flow = take_flow(it);
  if (observer_) observer_->on_flow_aborted(id, flow.total, flow.sent);
  reallocate();
}

void Fabric::fail_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  advance_all();  // credit the bytes that did arrive before the fault hit
  ++failed_;
  const Flow flow = take_flow(it);
  if (observer_) observer_->on_flow_aborted(id, flow.total, flow.sent);
  reallocate();
  if (flow.on_failed)
    flow.on_failed(id, std::max(0.0, flow.total - flow.sent));
}

// --- degraded link state -----------------------------------------------------

bool Fabric::link_down(LinkId link) const { return link_factor_[link] <= 0.0; }

double Fabric::effective_capacity_mbps(LinkId link) const {
  const double factor = link_factor_[link];
  if (factor <= 0.0) return 0.0;
  return topo_.capacity_mbps(link) * factor;
}

void Fabric::set_link_factor(LinkId link, double factor) {
  EANT_CHECK(link < link_factor_.size(), "unknown link");
  EANT_CHECK(factor >= 0.0 && factor <= 1.0,
             "link capacity factor must lie in [0, 1]");
  if (approx_equal(factor, link_factor_[link])) return;
  advance_all();  // bytes moved at the old rates up to this instant
  link_factor_[link] = factor;
  if (observer_) observer_->on_link_state(link, factor);
  reallocate();  // re-rates survivors; stranded flows get fail events at now
}

void Fabric::set_node_link_factor(NodeId node, double factor) {
  set_link_factor(topo_.node_tx(node), factor);
  set_link_factor(topo_.node_rx(node), factor);
}

void Fabric::set_trunk_factor(std::size_t rack, double factor) {
  set_link_factor(topo_.rack_up(rack), factor);
  set_link_factor(topo_.rack_down(rack), factor);
}

double Fabric::link_factor(LinkId link) const {
  EANT_CHECK(link < link_factor_.size(), "unknown link");
  return link_factor_[link];
}

double Fabric::node_link_factor(NodeId node) const {
  return std::min(link_factor(topo_.node_tx(node)),
                  link_factor(topo_.node_rx(node)));
}

double Fabric::trunk_factor(std::size_t rack) const {
  return std::min(link_factor(topo_.rack_up(rack)),
                  link_factor(topo_.rack_down(rack)));
}

bool Fabric::degraded() const {
  for (const double factor : link_factor_)
    if (factor < 1.0) return true;
  return false;
}

bool Fabric::reachable(NodeId src, NodeId dst) const {
  if (src == dst) return true;
  std::vector<LinkId> path;
  topo_.append_path(src, dst, path);
  for (LinkId link : path)
    if (link_down(link)) return false;
  return true;
}

NodeId Fabric::flow_dst(FlowId id) const { return flows_.at(id).dst; }
TransferClass Fabric::flow_class(FlowId id) const { return flows_.at(id).cls; }
double Fabric::flow_cap_mbps(FlowId id) const { return flows_.at(id).cap_mbps; }
double Fabric::flow_rate_mbps(FlowId id) {
  const Flow& flow = flows_.at(id);
  settle();
  return flow.rate_mbps;
}

Megabytes Fabric::flow_remaining_mb(FlowId id) const {
  const Flow& flow = flows_.at(id);
  const Seconds dt = sim_.now() - last_advance_;
  EANT_ASSERT(dt <= 0.0 || settled_, "rate read before the fabric settled");
  const Megabytes in_flight = dt > 0.0 ? flow.rate_mbps * dt : 0.0;
  return std::max(0.0, flow.total - flow.sent - in_flight);
}

std::vector<FlowId> Fabric::flows_touching(NodeId node) const {
  std::vector<FlowId> out;
  for (const auto& [id, flow] : flows_)
    if (flow.src == node || flow.dst == node) out.push_back(id);
  return out;
}

FabricMetrics Fabric::metrics() const {
  FabricMetrics m;
  m.shuffle_mb = class_mb_[static_cast<int>(TransferClass::kShuffle)];
  m.remote_read_mb = class_mb_[static_cast<int>(TransferClass::kRemoteRead)];
  m.replication_mb = class_mb_[static_cast<int>(TransferClass::kReplication)];
  m.flows_completed = completed_;
  m.flows_aborted = aborted_;
  m.flows_failed = failed_;
  m.mean_flow_slowdown =
      completed_ == 0 ? 1.0 : slowdown_sum_ / static_cast<double>(completed_);
  m.peak_link_utilization = peak_utilization_;
  m.fillings = fillings_;
  return m;
}

void Fabric::advance_all() {
  const Seconds dt = sim_.now() - last_advance_;
  last_advance_ = sim_.now();
  if (dt <= 0.0) return;
  // Time moved, so the simulator has popped an event since the last
  // reallocation, and it timed (settled) the fabric's event before that.
  EANT_ASSERT(settled_, "rate read before the fabric settled");
  for (auto& [id, flow] : flows_) {
    const Megabytes delta =
        std::min(flow.total - flow.sent, flow.rate_mbps * dt);
    flow.sent += delta;
    account_bytes(flow.cls, delta);
  }
}

void Fabric::reallocate() {
  sim_.cancel(event_);
  event_ = 0;
  settled_ = flows_.empty();  // nothing to rate without flows
  if (settled_) return;
  // The peak is a maximum over every allocation, so each one counts while
  // the peak can still rise: below 1, with some link finite.
  if (has_finite_link_ && peak_utilization_ < 1.0) settle();
  // Capturing only `this` keeps both callbacks inside std::function's
  // inline buffer, so arming and popping the event allocate nothing.
  event_ = sim_.schedule_lazy(
      [this] {
        settle();
        return due_at_;
      },
      [this] {
        event_ = 0;  // fired; the reallocation it triggers arms the next one
        if (due_fails_) {
          fail_flow(due_);
        } else {
          finish_flow(due_);
        }
      });
}

void Fabric::settle() {
  if (settled_) return;
  settled_ = true;
  ++fillings_;

  // Progressive filling: raise every unfrozen flow's rate in lockstep; when
  // a flow hits its cap it freezes, and when a link saturates every flow
  // crossing it freezes at the current (max-min fair) level.  A dead link
  // binds (at zero); an unlimited healthy/degraded one never does, so it
  // carries no load.
  live_links_.clear();
  for (LinkId link = 0; link < link_cap_.size(); ++link) {
    link_cap_[link] = effective_capacity_mbps(link);
    link_load_[link] = 0.0;
    link_active_[link] = link_flows_[link].size();
    if (link_active_[link] > 0 && std::isfinite(link_cap_[link]))
      live_links_.push_back(link);
  }
  for (Flow* flow : cap_order_) flow->frozen = false;

  // Every flow starts at 0 and every round adds the same increment to each
  // unfrozen one, so all unfrozen flows hold the one double `level`, and a
  // frozen flow keeps the level of the round that froze it.
  double level = 0.0;
  std::size_t unfrozen = cap_order_.size();
  std::size_t next_cap = 0;  // every cap_order_ entry before it is frozen
  const auto freeze = [&](Flow& flow) {
    flow.frozen = true;
    flow.rate_mbps = level;
    --unfrozen;
    for (LinkId link : flow.path) --link_active_[link];
  };
  while (unfrozen > 0) {
    // Largest uniform increment the caps and link residuals allow.  Rounding
    // is monotone, so min over unfrozen (cap - level) is the smallest
    // unfrozen cap minus level; caps are finite, so the increment is too.
    while (cap_order_[next_cap]->frozen) ++next_cap;
    double inc = cap_order_[next_cap]->cap_mbps - level;
    for (LinkId link : live_links_) {
      const double residual = link_cap_[link] - link_load_[link];
      inc = std::min(inc,
                     residual / static_cast<double>(link_active_[link]));
    }
    inc = std::max(inc, 0.0);  // float slack can drive the residual negative
    EANT_ASSERT(std::isfinite(inc), "filling increment must be finite");
    level += inc;

    // A link gains `inc` once per unfrozen flow crossing it: k additions of
    // one value, not one `inc * k`, which would round differently.
    for (LinkId link : live_links_) {
      link_load_[link] =
          add_repeatedly(link_load_[link], inc, link_active_[link]);
    }
    // Freeze whatever became binding.  Freezing moves no load, so the links
    // saturated now stay so for the whole round; the cap test is monotone in
    // the cap, so the capped flows are a prefix of the unfrozen cap order.
    for (LinkId link : live_links_) {
      if (link_load_[link] < link_cap_[link] - kRateTol) continue;
      for (Flow* flow : link_flows_[link])
        if (!flow->frozen) freeze(*flow);
    }
    for (; next_cap < cap_order_.size(); ++next_cap) {
      Flow& flow = *cap_order_[next_cap];
      if (flow.frozen) continue;
      if (level < flow.cap_mbps - kRateTol) break;
      freeze(flow);
    }
    std::erase_if(live_links_,
                  [&](LinkId link) { return link_active_[link] == 0; });
  }

  // Peak utilisation over binding links, observed at reallocation instants
  // (rates are constant between instants, so this is the true peak).
  for (LinkId link = 0; link < link_load_.size(); ++link) {
    if (std::isinf(link_cap_[link]) || link_down(link) ||
        link_load_[link] <= 0.0)
      continue;
    peak_utilization_ = std::max(
        peak_utilization_, std::min(1.0, link_load_[link] / link_cap_[link]));
  }

  // The one event fires at the earliest projected finish; ties go to the
  // lowest id.  A flow stranded on a down link holds rate 0 and will never
  // deliver another byte; it is due at `now` and fails instead.
  due_ = 0;
  due_at_ = 0.0;
  for (const auto& [id, flow] : flows_) {
    const Megabytes remaining = std::max(0.0, flow.total - flow.sent);
    const bool stranded = remaining > 0.0 && flow.rate_mbps <= kRateTol;
    const Seconds dt = stranded || std::isinf(flow.rate_mbps)
                           ? 0.0
                           : remaining / flow.rate_mbps;
    EANT_CHECK(dt >= 0.0, "delay must be non-negative");
    const Seconds at = sim_.now() + dt;
    if (due_ == 0 || at < due_at_) {
      due_ = id;
      due_at_ = at;
      due_fails_ = stranded;
    }
  }
}

bool Fabric::cap_before(const Flow* a, const Flow* b) {
  if (a->cap_mbps != b->cap_mbps) return a->cap_mbps < b->cap_mbps;
  return a->id < b->id;
}

Fabric::Flow Fabric::take_flow(std::map<FlowId, Flow>::iterator it) {
  Flow* flow = &it->second;
  const auto pos = std::lower_bound(cap_order_.begin(), cap_order_.end(),
                                    flow, cap_before);
  EANT_ASSERT(pos != cap_order_.end() && *pos == flow,
              "live flow missing from the cap order");
  cap_order_.erase(pos);
  for (LinkId link : flow->path) {
    std::vector<Flow*>& crossing = link_flows_[link];
    const auto at = std::find(crossing.begin(), crossing.end(), flow);
    EANT_ASSERT(at != crossing.end(), "live flow missing from a link's index");
    *at = crossing.back();
    crossing.pop_back();
  }
  Flow out = std::move(*flow);
  flows_.erase(it);
  return out;
}

void Fabric::finish_flow(FlowId id) {
  advance_all();
  auto it = flows_.find(id);
  EANT_CHECK(it != flows_.end(), "completion event for unknown flow");
  if (observer_)
    observer_->on_flow_finished(id, it->second.total, it->second.sent);
  const Flow flow = take_flow(it);
  // Float residue: the completion event fired, so the last byte is in.
  account_bytes(flow.cls, std::max(0.0, flow.total - flow.sent));

  ++completed_;
  const Seconds actual = sim_.now() - flow.started;
  const Seconds solo =
      std::isinf(flow.solo_mbps) ? 0.0 : flow.total / flow.solo_mbps;
  slowdown_sum_ += solo > 0.0 ? std::max(1.0, actual / solo) : 1.0;

  reallocate();
  if (flow.on_complete) flow.on_complete(id);
}

void Fabric::account_bytes(TransferClass cls, Megabytes mb) {
  class_mb_[static_cast<int>(cls)] += mb;
}

}  // namespace eant::net
