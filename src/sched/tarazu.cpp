#include "sched/tarazu.h"

#include <algorithm>
#include <vector>

namespace eant::sched {
namespace {

/// Tolerated overshoot of a machine's capability share before it is
/// throttled for a heartbeat, and the started maps a job needs before its
/// quota binds.
constexpr double kSlack = 1.5;
constexpr std::size_t kMinSamples = 8;

}  // namespace

bool TarazuScheduler::over_quota(const mr::JobState& job,
                                 cluster::MachineId machine) {
  // Tarazu's balancing targets wimpy nodes.  "Wimpy" for a tail task means
  // slow per slot (a straggling last map is bound by one core's speed, not
  // by the machine's aggregate throughput), so machines at or above the
  // fleet's median per-core speed are never throttled.  The fleet is fixed,
  // so the median is computed once.
  auto speed = [this](cluster::MachineId m) {
    return jt_->cluster().machine(m).type().cpu_factor;
  };
  if (!median_speed_) {
    std::vector<double> speeds;
    const std::size_t n = jt_->cluster().size();
    speeds.reserve(n);
    for (cluster::MachineId m = 0; m < n; ++m) speeds.push_back(speed(m));
    std::nth_element(speeds.begin(), speeds.begin() + speeds.size() / 2,
                     speeds.end());
    median_speed_ = speeds[speeds.size() / 2];
  }
  if (speed(machine) >= *median_speed_) return false;

  const auto& per_machine = job.started_per_machine(mr::TaskKind::kMap);
  std::size_t total = 0;
  for (auto c : per_machine) total += c;
  if (total < kMinSamples) return false;  // not enough signal yet
  const double share = static_cast<double>(per_machine[machine] + 1) /
                       static_cast<double>(total + 1);
  return share > kSlack * jt_->capability_share(machine);
}

std::optional<mr::JobId> TarazuScheduler::select_job(cluster::MachineId machine,
                                                     mr::TaskKind kind) {
  const auto& order = fair_order(kind);
  if (order.empty()) return std::nullopt;
  if (kind == mr::TaskKind::kReduce) return order.front();

  // Map assignment: prefer the most-starved job for which this machine is
  // still under its capability-proportional quota.  Mid-job Tarazu stays
  // work-conserving (every slot adds throughput), but in a job's final
  // waves — when its remaining maps fit within the cluster's map slots — a
  // machine over its quota declines, so slow nodes cannot capture tail
  // tasks and stretch the job (the straggler effect Tarazu eliminates).
  // On a multi-rack topology, locality breaks ties among eligible jobs: a
  // job that can feed this machine a node-local (or failing that,
  // rack-local) split keeps its traffic off the oversubscribed uplinks.
  // With one flat rack this is inert and the first eligible job runs.
  const bool racked = jt_->namenode().num_racks() > 1;
  const int tail_threshold = jt_->cluster().total_map_slots();
  std::optional<mr::JobId> rack_choice;
  std::optional<mr::JobId> any_choice;
  for (mr::JobId id : order) {
    const auto& js = jt_->job(id);
    const bool in_tail =
        js.pending(mr::TaskKind::kMap) + js.running(mr::TaskKind::kMap) <=
        static_cast<std::size_t>(tail_threshold);
    if (in_tail && over_quota(js, machine)) continue;
    if (!racked) return id;
    if (js.has_local_pending_map(machine)) return id;
    if (!rack_choice && js.has_rack_local_pending_map(machine)) {
      rack_choice = id;
    }
    if (!any_choice) any_choice = id;
  }
  return rack_choice ? rack_choice : any_choice;
}

}  // namespace eant::sched
