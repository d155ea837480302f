// Cluster: the fleet of machines plus the homogeneous-group index that
// E-Ant's machine-level exchange strategy (Sec. IV-D) relies on.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "sim/simulator.h"

namespace eant::cluster {

/// Owns the machines of a simulated Hadoop cluster.
class Cluster {
 public:
  explicit Cluster(sim::Simulator& sim) : sim_(sim) {}

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds `count` machines of the given type; returns the id of the first.
  MachineId add_machines(const MachineType& type, std::size_t count = 1);

  std::size_t size() const { return machines_.size(); }
  Machine& machine(MachineId id);
  const Machine& machine(MachineId id) const;

  /// Distinct type names present in the cluster, in first-added order.
  const std::vector<std::string>& type_names() const { return type_order_; }

  /// Machines of a given type name, in id order (empty vector if none): the
  /// homogeneous sub-cluster used for machine-level exchange.
  std::vector<MachineId> machines_of_type(const std::string& type_name) const;

  /// Total map (resp. reduce) slots across the fleet (summed as machines
  /// are added; a machine's type never changes).
  int total_map_slots() const { return map_slots_; }
  int total_reduce_slots() const { return reduce_slots_; }

  /// Sum of exact machine energies up to the current simulation time.
  Joules total_energy() const;

  sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::map<std::string, std::vector<MachineId>> groups_;
  std::vector<std::string> type_order_;
  int map_slots_ = 0;
  int reduce_slots_ = 0;
};

}  // namespace eant::cluster
