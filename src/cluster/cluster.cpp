#include "cluster/cluster.h"

#include <algorithm>

namespace eant::cluster {

MachineId Cluster::add_machines(const MachineType& type, std::size_t count) {
  EANT_CHECK(count >= 1, "must add at least one machine");
  const MachineId first = machines_.size();
  if (!groups_.contains(type.name)) type_order_.push_back(type.name);
  for (std::size_t i = 0; i < count; ++i) {
    const MachineId id = machines_.size();
    machines_.push_back(std::make_unique<Machine>(sim_, id, type));
    groups_[type.name].push_back(id);
    map_slots_ += type.map_slots;
    reduce_slots_ += type.reduce_slots;
  }
  return first;
}

Machine& Cluster::machine(MachineId id) {
  EANT_CHECK(id < machines_.size(), "machine id out of range");
  return *machines_[id];
}

const Machine& Cluster::machine(MachineId id) const {
  EANT_CHECK(id < machines_.size(), "machine id out of range");
  return *machines_[id];
}

std::vector<MachineId> Cluster::machine_ids() const {
  std::vector<MachineId> ids(machines_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

const std::vector<MachineId>& Cluster::homogeneous_group(MachineId id) const {
  EANT_CHECK(id < machines_.size(), "machine id out of range");
  return groups_.at(machines_[id]->type().name);
}

std::vector<MachineId> Cluster::machines_of_type(
    const std::string& type_name) const {
  auto it = groups_.find(type_name);
  if (it == groups_.end()) return {};
  return it->second;
}

Joules Cluster::total_energy() const {
  Joules total = 0.0;
  for (const auto& m : machines_) total += m->energy();
  return total;
}

}  // namespace eant::cluster
