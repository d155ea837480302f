// Contention-aware flow model over a Topology.
//
// Every in-flight transfer is a fluid flow with a fixed path, a per-flow rate
// cap (the application-level bandwidth it could use on an idle network — for
// shuffle/remote-read flows these are the JobTracker's kShuffleMbps and
// kRemoteReadMbps constants, the scalar model's bandwidths, which makes the
// flat infinite-capacity topology reproduce the old model exactly)
// and a progressive-filling max-min fair share of every link it crosses.
//
// The model is purely event-driven: rates only change when a flow starts,
// finishes or aborts, or a link's capacity changes.  At each such instant
// the fabric advances all flows' transferred bytes at their previous rates
// and re-arms its one pending Simulator event as a lazily timed one.  The
// water-filling allocation and the earliest projected finish are computed
// when that event asks for its time, after the simulator event that made
// the changes returns, so a burst of changes at one instant costs one
// filling.  There is no per-tick polling.
//
// Water-filling raises one shared fill level instead of one rate per flow.
// Two indexes kept up to date as flows start and end feed it: the live flows
// ordered by cap, which give the next cap to bind and the flows it freezes,
// and each link's crossing flows, which give the flows a saturated link
// freezes.  A filling round therefore costs the finite links still carrying
// unfrozen flows, their load additions and the flows it freezes, not a walk
// over every unfrozen flow's path.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/units.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace eant::net {

/// Why bytes are moving; used to attribute traffic and contention per class.
enum class TransferClass {
  kShuffle,      ///< reduce fetching map output partitions
  kRemoteRead,   ///< non-local map reading its split from a replica holder
  kReplication,  ///< HDFS pipeline writing job output replicas
};

/// Identifies an in-flight flow; never reused within a Fabric.
using FlowId = std::uint64_t;

/// Passive observer of flow lifecycle (the audit layer's byte-conservation
/// tap).  Callbacks fire synchronously inside start/finish/abort and must
/// not mutate the fabric.
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  virtual void on_flow_started(FlowId id, TransferClass cls,
                               Megabytes total_mb) = 0;
  /// `delivered_mb` is the bytes credited to the flow when its completion
  /// event fired (before the fabric tops up the float residue).  The flow
  /// is still active during the call.
  virtual void on_flow_finished(FlowId id, Megabytes requested_mb,
                                Megabytes delivered_mb) = 0;
  /// Fires for both voluntary aborts and fault-driven kills; `delivered_mb`
  /// is the bytes that arrived before teardown (they stay in the per-class
  /// byte accounting — partial transfers are real traffic).  The flow is
  /// no longer active during the call.
  virtual void on_flow_aborted(FlowId id, Megabytes requested_mb,
                               Megabytes delivered_mb) = 0;
  /// A link's capacity factor changed (fault, degradation or repair).
  virtual void on_link_state(LinkId link, double factor) {
    (void)link;
    (void)factor;
  }
};

/// Aggregate counters, snapshot via Fabric::metrics().
struct FabricMetrics {
  Megabytes shuffle_mb = 0.0;      ///< bytes delivered, incl. aborted partials
  Megabytes remote_read_mb = 0.0;
  Megabytes replication_mb = 0.0;
  std::size_t flows_completed = 0;
  std::size_t flows_aborted = 0;
  /// Flows killed by a network fault (dead link on the path or an injected
  /// fetch failure); disjoint from flows_aborted.
  std::size_t flows_failed = 0;
  /// Mean over completed flows of actual duration / solo duration, where the
  /// solo duration assumes the flow had every link to itself (>= 1).
  double mean_flow_slowdown = 1.0;
  /// Highest sum(rate)/capacity observed on any finite link at any
  /// reallocation instant, in [0, 1].
  double peak_link_utilization = 0.0;
  /// Water-fillings run: one per reallocation while the peak above can
  /// still rise, else one per simulator event that changed the flows.
  std::size_t fillings = 0;

  Megabytes total_mb() const {
    return shuffle_mb + remote_read_mb + replication_mb;
  }
};

/// The live flow table + max-min fair allocator.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, Topology topology);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  /// Handler for fault-driven flow death; receives the flow id and the bytes
  /// that never arrived.  Unlike on_complete it fires from fail_flow (either
  /// an explicit fault injection or a dead link stranding the flow), so the
  /// owner can retry, fail over or give up.
  using FailureHandler = std::function<void(FlowId, Megabytes remaining_mb)>;

  /// Starts a flow of `mb` megabytes from src to dst, rate-capped at
  /// `cap_mbps` MB/s.  `on_complete` fires (with the flow's id) once the last
  /// byte arrives; it may start further flows.  src must differ from dst and
  /// mb must be positive — loopback "transfers" are free and should not
  /// enter the fabric.  `on_failed`, if set, fires instead of `on_complete`
  /// when the flow is killed by a network fault.
  FlowId start_flow(NodeId src, NodeId dst, Megabytes mb, double cap_mbps,
                    TransferClass cls, std::function<void(FlowId)> on_complete,
                    FailureHandler on_failed = nullptr);

  /// Kills an in-flight flow without firing its callback; a no-op if the
  /// flow already completed or was aborted.
  void abort_flow(FlowId id);

  /// Kills an in-flight flow *as a network fault*: the observer sees an
  /// abort, flows_failed increments, and the flow's failure handler (if any)
  /// fires with the undelivered bytes.  A no-op for unknown ids.  Called
  /// internally when a dead link strands a flow, and externally by the
  /// fetch-failure injection path.
  void fail_flow(FlowId id);

  // --- degraded link state ---------------------------------------------------
  // Each directed link carries a capacity factor: 1 = healthy, (0, 1) =
  // degraded (partial capacity), 0 = down.  Changing a factor re-rates every
  // flow event-deterministically; flows whose path crosses a down link are
  // failed (they can make no progress).  Note an unlimited link stays
  // unlimited under any positive factor — only 0 can take it down.

  /// Sets one directed link's capacity factor (in [0, 1]).
  void set_link_factor(LinkId link, double factor);
  /// Sets the factor of a node's access links (tx and rx together).
  void set_node_link_factor(NodeId node, double factor);
  /// Sets the factor of a rack's trunk links (up and down together);
  /// factor 0 partitions the rack from the rest of the fabric.
  void set_trunk_factor(std::size_t rack, double factor);

  double link_factor(LinkId link) const;
  /// min(tx factor, rx factor) for the node's access links.
  double node_link_factor(NodeId node) const;
  /// min(up factor, down factor) for the rack's trunk.
  double trunk_factor(std::size_t rack) const;
  /// Capacity after applying the factor; 0 when the link is down.
  double effective_capacity_mbps(LinkId link) const;
  /// True iff any link is currently degraded or down.
  bool degraded() const;
  /// True iff every link on the src->dst path is up (factor > 0).  Loopback
  /// is always reachable.  The scheduler's degraded-state query.
  bool reachable(NodeId src, NodeId dst) const;

  bool active(FlowId id) const { return flows_.contains(id); }
  std::size_t active_flows() const { return flows_.size(); }

  // Introspection for the JobTracker's crash handling and for tests.
  NodeId flow_dst(FlowId id) const;
  TransferClass flow_class(FlowId id) const;
  double flow_cap_mbps(FlowId id) const;
  /// Current allocated rate (MB/s); advances are lazy, so this is the rate
  /// since the last reallocation.  Settles the allocation first.
  double flow_rate_mbps(FlowId id);
  /// Bytes still to deliver as of `sim.now()`.
  Megabytes flow_remaining_mb(FlowId id) const;
  /// Ids of active flows with src or dst on `node`, ascending (deterministic).
  std::vector<FlowId> flows_touching(NodeId node) const;

  const Topology& topology() const { return topo_; }
  FabricMetrics metrics() const;

  /// Attaches (or, with nullptr, detaches) a flow-lifecycle observer.  At
  /// most one; it must outlive the fabric or be detached first.
  void set_observer(FabricObserver* observer) { observer_ = observer; }

 private:
  struct Flow {
    FlowId id = 0;                  // the flow table's key, for cap_order_
    NodeId src = 0;
    NodeId dst = 0;
    std::vector<LinkId> path;       // every link crossed (faults can make
                                    // any of them binding later)
    Megabytes total = 0.0;
    Megabytes sent = 0.0;
    double cap_mbps = 0.0;
    double rate_mbps = 0.0;         // current max-min share
    bool frozen = false;            // reached its share in this filling
    double solo_mbps = 0.0;         // rate on an idle network
    Seconds started = 0.0;
    TransferClass cls;
    std::function<void(FlowId)> on_complete;
    FailureHandler on_failed;
  };

  /// Credits every flow with rate * elapsed bytes since the last call.
  void advance_all();
  /// Re-arms the one pending event after a change to the flows or links: it
  /// fires at the earliest projected finish (ties to the lowest id) and
  /// finishes that flow, or fails it if a down link stranded it.  Re-armed
  /// on every call, even when the due flow is unchanged, so it keeps the
  /// place among same-instant events that a per-flow event rescheduled here
  /// would hold.  The event is lazily timed: its time callback settles the
  /// allocation, so further changes in the same simulator event replace an
  /// allocation nobody read without computing it.  While the utilisation
  /// peak can still rise, it settles at once instead, since the peak is a
  /// maximum over every allocation.  With no flows left, no event is
  /// pending.
  void reallocate();
  /// Water-filling over the current flow set, the utilisation peak and the
  /// due flow; a no-op when they already describe the current state.
  ///
  /// Filling keeps every unfrozen flow at one shared level; a round raises
  /// it by the largest step the smallest unfrozen cap (the front of
  /// `cap_order_`) and the finite links' residuals allow, then freezes a
  /// prefix of the cap order and the unfrozen flows `link_flows_` lists
  /// under each link that saturated.  It computes every rate bit for bit as
  /// the per-flow loop kept in tests/fabric_oracle_test.cpp does.
  void settle();
  /// The cap order: ascending cap, ties by id, so every flow has one exact
  /// place even among the many flows that share a JobTracker cap constant.
  static bool cap_before(const Flow* a, const Flow* b);
  /// Removes a live flow from the table and from both indexes.
  Flow take_flow(std::map<FlowId, Flow>::iterator it);
  void finish_flow(FlowId id);
  void account_bytes(TransferClass cls, Megabytes mb);
  bool link_down(LinkId link) const;

  sim::Simulator& sim_;
  Topology topo_;
  // std::map: deterministic iteration order (flows allocate and complete in
  // id order at equal timestamps) regardless of hash seeds.  Its nodes never
  // move, so the indexes below hold plain pointers until take_flow.
  std::map<FlowId, Flow> flows_;
  std::vector<Flow*> cap_order_;                // live flows by (cap, id)
  std::vector<std::vector<Flow*>> link_flows_;  // live flows crossing a link
  FlowId next_id_ = 1;
  // The one pending event (0 = none): it ends flow due_, with fail_flow if
  // a down link stranded it (due_fails_), else with finish_flow.
  sim::EventId event_ = 0;
  FlowId due_ = 0;
  Seconds due_at_ = 0.0;
  bool due_fails_ = false;
  // The rates, peak and due flow describe the current flows and links.
  bool settled_ = true;
  // Some link has a finite capacity, so the utilisation peak can be above 0.
  bool has_finite_link_ = false;
  Seconds last_advance_ = 0.0;
  FabricObserver* observer_ = nullptr;

  // per-link capacity factors; 1 everywhere on a healthy fabric
  std::vector<double> link_factor_;

  // metrics accumulators
  Megabytes class_mb_[3] = {0.0, 0.0, 0.0};
  std::size_t completed_ = 0;
  std::size_t aborted_ = 0;
  std::size_t failed_ = 0;
  double slowdown_sum_ = 0.0;
  double peak_utilization_ = 0.0;
  std::size_t fillings_ = 0;

  // scratch buffers reused across reallocations
  std::vector<double> link_cap_;   // effective capacity, +inf if it can't bind
  std::vector<double> link_load_;  // summed rates; kept on finite links only
  std::vector<std::size_t> link_active_;  // unfrozen flows crossing the link
  std::vector<LinkId> live_links_;  // finite links with unfrozen flows
};

}  // namespace eant::net
