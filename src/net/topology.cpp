#include "net/topology.h"

#include "common/error.h"

namespace eant::net {

TopologySpec TopologySpec::flat() { return TopologySpec{}; }

TopologySpec TopologySpec::oversubscribed(std::size_t racks, double node_mbps,
                                          double rack_uplink_mbps) {
  TopologySpec spec;
  spec.racks = racks;
  spec.node_mbps = node_mbps;
  spec.rack_uplink_mbps = rack_uplink_mbps;
  return spec;
}

Topology::Topology(TopologySpec spec, std::size_t num_nodes)
    : spec_(spec), num_nodes_(num_nodes) {
  EANT_CHECK(num_nodes >= 1, "topology needs at least one node");
  EANT_CHECK(spec_.racks >= 1, "topology needs at least one rack");
  EANT_CHECK(spec_.node_mbps > 0.0, "node link capacity must be positive");
  EANT_CHECK(spec_.rack_uplink_mbps > 0.0,
             "rack uplink capacity must be positive");
  // More racks than nodes would leave empty racks and skew the rack-aware
  // placement policy; clamp like HDFS clamps the replication factor.
  if (spec_.racks > num_nodes_) spec_.racks = num_nodes_;
}

std::size_t Topology::rack_of(NodeId node) const {
  EANT_CHECK(node < num_nodes_, "unknown node");
  return node % spec_.racks;
}

std::vector<std::size_t> Topology::rack_assignment() const {
  std::vector<std::size_t> racks(num_nodes_);
  for (NodeId n = 0; n < num_nodes_; ++n) racks[n] = rack_of(n);
  return racks;
}

Locality Topology::locality(NodeId a, NodeId b) const {
  if (a == b) return Locality::kNodeLocal;
  return rack_of(a) == rack_of(b) ? Locality::kRackLocal : Locality::kOffRack;
}

LinkId Topology::node_tx(NodeId node) const {
  EANT_CHECK(node < num_nodes_, "unknown node");
  return node;
}

LinkId Topology::node_rx(NodeId node) const {
  EANT_CHECK(node < num_nodes_, "unknown node");
  return num_nodes_ + node;
}

LinkId Topology::rack_up(std::size_t rack) const {
  EANT_CHECK(rack < spec_.racks, "unknown rack");
  return 2 * num_nodes_ + rack;
}

LinkId Topology::rack_down(std::size_t rack) const {
  EANT_CHECK(rack < spec_.racks, "unknown rack");
  return 2 * num_nodes_ + spec_.racks + rack;
}

double Topology::capacity_mbps(LinkId link) const {
  EANT_CHECK(link < num_links(), "unknown link");
  return link < 2 * num_nodes_ ? spec_.node_mbps : spec_.rack_uplink_mbps;
}

void Topology::append_path(NodeId src, NodeId dst,
                           std::vector<LinkId>& out) const {
  if (src == dst) return;  // loopback: data never leaves the node
  out.push_back(node_tx(src));
  const std::size_t src_rack = rack_of(src);
  const std::size_t dst_rack = rack_of(dst);
  if (src_rack != dst_rack) {
    out.push_back(rack_up(src_rack));
    out.push_back(rack_down(dst_rack));
  }
  out.push_back(node_rx(dst));
}

}  // namespace eant::net
