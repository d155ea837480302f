#include "core/exchange.h"

#include <map>

#include "common/error.h"

namespace eant::core {

DeltaMap machine_level_exchange(const DeltaMap& deltas,
                                const cluster::Cluster& cluster) {
  // Every machine belongs to exactly one group, so one sum per group fills
  // each row, in the same order of additions as a sum per machine.
  std::vector<std::vector<cluster::MachineId>> groups;
  for (const std::string& type : cluster.type_names()) {
    groups.push_back(cluster.machines_of_type(type));
  }
  DeltaMap out;
  for (const auto& [key, per_machine] : deltas) {
    EANT_CHECK(per_machine.size() == cluster.size(),
               "delta vector does not match cluster size");
    std::vector<double> smoothed(per_machine.size(), 0.0);
    for (const auto& group : groups) {
      double sum = 0.0;
      for (cluster::MachineId peer : group) sum += per_machine[peer];
      const double mean = sum / static_cast<double>(group.size());
      for (cluster::MachineId peer : group) smoothed[peer] = mean;
    }
    out[key] = std::move(smoothed);
  }
  return out;
}

DeltaMap job_level_exchange(
    const DeltaMap& deltas,
    const std::function<std::string(mr::JobId)>& class_key) {
  EANT_CHECK(static_cast<bool>(class_key), "class_key must be callable");
  if (deltas.empty()) return {};

  // Group colonies by (class, kind) and average their deposit vectors.
  struct Group {
    std::vector<double> sum;
    std::size_t count = 0;
  };
  std::map<std::pair<std::string, mr::TaskKind>, Group> groups;
  for (const auto& [key, per_machine] : deltas) {
    auto& g = groups[{class_key(key.first), key.second}];
    if (g.sum.empty()) g.sum.assign(per_machine.size(), 0.0);
    EANT_CHECK(g.sum.size() == per_machine.size(),
               "delta vectors disagree on machine count");
    for (std::size_t m = 0; m < per_machine.size(); ++m) {
      g.sum[m] += per_machine[m];
    }
    ++g.count;
  }

  DeltaMap out;
  for (const auto& [key, per_machine] : deltas) {
    const auto& g = groups.at({class_key(key.first), key.second});
    std::vector<double> avg(per_machine.size());
    for (std::size_t m = 0; m < avg.size(); ++m) {
      avg[m] = g.sum[m] / static_cast<double>(g.count);
    }
    out[key] = std::move(avg);
  }
  return out;
}

DeltaMap apply_negative_feedback(
    const DeltaMap& deltas,
    const std::function<std::string(mr::JobId)>& class_key) {
  EANT_CHECK(static_cast<bool>(class_key), "class_key must be callable");
  if (deltas.empty()) return {};

  // Per (kind): the per-class mean deposit vector, so each colony can
  // subtract the average experience of competing (other-class) colonies.
  struct ClassAcc {
    std::vector<double> sum;
    std::size_t count = 0;
  };
  std::map<std::pair<mr::TaskKind, std::string>, ClassAcc> classes;
  for (const auto& [key, per_machine] : deltas) {
    auto& acc = classes[{key.second, class_key(key.first)}];
    if (acc.sum.empty()) acc.sum.assign(per_machine.size(), 0.0);
    EANT_CHECK(acc.sum.size() == per_machine.size(),
               "delta vectors disagree on machine count");
    for (std::size_t m = 0; m < per_machine.size(); ++m) {
      acc.sum[m] += per_machine[m];
    }
    ++acc.count;
  }

  DeltaMap out;
  for (const auto& [key, per_machine] : deltas) {
    const std::string own_class = class_key(key.first);
    // Mean deposit per machine over all colonies of other classes (same
    // task kind).
    std::vector<double> competitor_mean(per_machine.size(), 0.0);
    std::size_t competitors = 0;
    for (const auto& [ck, acc] : classes) {
      if (ck.first != key.second || ck.second == own_class) continue;
      for (std::size_t m = 0; m < per_machine.size(); ++m) {
        competitor_mean[m] += acc.sum[m];
      }
      competitors += acc.count;
    }
    std::vector<double> adjusted(per_machine.size());
    for (std::size_t m = 0; m < per_machine.size(); ++m) {
      const double mean = competitors == 0
                              ? 0.0
                              : competitor_mean[m] /
                                    static_cast<double>(competitors);
      adjusted[m] = per_machine[m] - mean;
    }
    out[key] = std::move(adjusted);
  }
  return out;
}

DeltaMap center_deposits(const DeltaMap& deltas, double center) {
  EANT_CHECK(center > 0.0, "center must be positive");
  DeltaMap out;
  for (const auto& [key, per_machine] : deltas) {
    EANT_CHECK(!per_machine.empty(), "empty deposit row");
    double mean = 0.0;
    for (double d : per_machine) mean += d;
    mean /= static_cast<double>(per_machine.size());
    std::vector<double> centered(per_machine.size());
    for (std::size_t m = 0; m < per_machine.size(); ++m) {
      centered[m] = center + per_machine[m] - mean;
    }
    out[key] = std::move(centered);
  }
  return out;
}

}  // namespace eant::core
