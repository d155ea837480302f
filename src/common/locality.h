// Three-level data locality, shared by the HDFS placement model, the network
// fabric and the schedulers.  Hadoop's NetworkTopology distinguishes exactly
// these levels: a split read from the task's own node, from another node in
// the same rack (one switch hop, no core traversal), or from a different
// rack (crosses the oversubscribed rack-to-core uplink).

#pragma once

namespace eant {

enum class Locality {
  kNodeLocal,  ///< a replica lives on the task's machine
  kRackLocal,  ///< a replica lives in the task's rack (but not its node)
  kOffRack,    ///< every replica is in another rack
};

}  // namespace eant
