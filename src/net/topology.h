// Rack-level network topology: every node hangs off its rack switch through a
// full-duplex access link, and every rack switch reaches the core through an
// (optionally oversubscribed) full-duplex uplink.  A transfer from node A to
// node B therefore crosses
//
//   A.tx                      when A and B share a rack, plus
//   rack(A).up + rack(B).down when they do not, plus
//   B.rx
//
// and nothing at all when A == B (loopback).  This is the standard two-tier
// tree that `replicant-opera`-style storage simulators and Hadoop's own
// NetworkTopology assume, and it is what turns the paper's "Grep/Terasort are
// shuffle-bound" observation (Fig. 1(d)) into an emergent property instead of
// a constant.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/locality.h"
#include "common/units.h"

namespace eant::net {

/// Machines double as network nodes; ids are the cluster's MachineIds.
using NodeId = std::size_t;

/// Identifies one directed link in a Topology.
using LinkId = std::size_t;

/// Capacity value meaning "this link never binds".
constexpr double kUnlimitedMbps = std::numeric_limits<double>::infinity();

/// Declarative description of a fabric; `Topology` expands it for a concrete
/// node count.  Capacities are in MB/s, matching the JobTrackerConfig
/// bandwidth scalars they replace.
struct TopologySpec {
  std::size_t racks = 1;
  double node_mbps = kUnlimitedMbps;         ///< per-node access link, each way
  double rack_uplink_mbps = kUnlimitedMbps;  ///< rack<->core trunk, each way

  /// One rack, infinite links: flows are limited only by their own caps, so
  /// runs reproduce the legacy scalar-bandwidth model exactly.
  static TopologySpec flat();

  /// The default contended experiment: GbE-class access links (~100 MB/s as
  /// in the paper's 1 GbE testbed) and a rack trunk shared by every node in
  /// the rack.  Capacities are application-effective rates on the same scale
  /// as the JobTrackerConfig scalars (shuffle 20, remote read 10 MB/s), so a
  /// 25 MB/s trunk saturates as soon as two rack-crossing fetches overlap —
  /// the regime where the paper's Fig. 1(d) "Grep/Terasort are
  /// shuffle-bound" ordering emerges from contention alone.
  static TopologySpec oversubscribed(std::size_t racks = 4,
                                     double node_mbps = 100.0,
                                     double rack_uplink_mbps = 25.0);
};

/// Immutable expanded topology: rack membership plus directed link table.
class Topology {
 public:
  Topology(TopologySpec spec, std::size_t num_nodes);

  const TopologySpec& spec() const { return spec_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_racks() const { return spec_.racks; }

  /// Round-robin rack membership (node n lives in rack n % racks), so the
  /// heterogeneous machine types of the paper's fleet spread across racks
  /// instead of clustering by hardware generation.
  std::size_t rack_of(NodeId node) const;

  /// rack_of() for all nodes, in node order (handed to the NameNode).
  std::vector<std::size_t> rack_assignment() const;

  Locality locality(NodeId a, NodeId b) const;

  // --- directed link table ---------------------------------------------------
  // Layout: [node tx][node rx][rack up][rack down].
  std::size_t num_links() const { return 2 * num_nodes_ + 2 * spec_.racks; }
  LinkId node_tx(NodeId node) const;
  LinkId node_rx(NodeId node) const;
  LinkId rack_up(std::size_t rack) const;
  LinkId rack_down(std::size_t rack) const;

  double capacity_mbps(LinkId link) const;
  bool is_finite(LinkId link) const {
    return std::isfinite(capacity_mbps(link));
  }

  /// Appends the links a src->dst transfer crosses (empty for loopback).
  void append_path(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

 private:
  TopologySpec spec_;
  std::size_t num_nodes_;
};

}  // namespace eant::net
