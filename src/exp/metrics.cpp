#include "exp/metrics.h"

#include <algorithm>

#include "common/error.h"
#include "common/stats.h"

namespace eant::exp {

Seconds RunMetrics::mean_completion(const std::string& class_name) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (j.failed) continue;  // a failed job has no completion time
    if (!class_name.empty() && j.class_name != class_name) continue;
    sum += j.completion_time;
    ++n;
  }
  EANT_CHECK(n > 0, "no jobs match the requested class");
  return sum / static_cast<double>(n);
}

Seconds RunMetrics::mean_recovery_time() const {
  if (recovery_times.empty()) return 0.0;
  double sum = 0.0;
  for (Seconds t : recovery_times) sum += t;
  return sum / static_cast<double>(recovery_times.size());
}

const TypeMetrics& RunMetrics::type(const std::string& name) const {
  for (const auto& t : by_type) {
    if (t.type_name == name) return t;
  }
  throw PreconditionError("no metrics for machine type " + name);
}

const TenantMetrics& RunMetrics::tenant(workload::TenantId id) const {
  for (const auto& t : by_tenant) {
    if (t.tenant == id) return t;
  }
  throw PreconditionError("no metrics for tenant " + std::to_string(id));
}

MetricsCollector::MetricsCollector(cluster::Cluster& cluster,
                                   mr::JobTracker& jt)
    : cluster_(cluster),
      jt_(jt),
      model_(core::EnergyModel::from_cluster(cluster)) {}

void MetricsCollector::install() {
  jt_.set_report_listener([this](const mr::TaskReport& r) {
    const auto& type_name = cluster_.machine(r.machine).type().name;
    const auto& js = jt_.job(r.spec.job);
    ++tasks_by_type_app_[type_name][workload::app_name(js.spec().app)];
    ++total_tasks_;
    // Per-tenant SLO accounting: completed task-seconds and Eq. 2 energy.
    tenant_slot_seconds_[js.spec().tenant] += r.duration();
    tenant_energy_[js.spec().tenant] += model_.estimate(r);
    if (r.spec.kind == mr::TaskKind::kMap) {
      ++maps_by_type_[type_name];
      ++total_maps_;
      if (r.data_local) ++local_maps_;
      if (r.locality == Locality::kRackLocal) ++rack_local_maps_;
    } else {
      ++reduces_by_type_[type_name];
    }
  });

  jt_.set_job_finished_listener([this](const mr::JobState& js) {
    JobMetrics jm;
    jm.id = js.id();
    jm.class_name = js.spec().class_key();
    jm.tenant = js.spec().tenant;
    jm.submit_time = js.submit_time();
    jm.completion_time = js.completion_time();
    jm.deadline = js.spec().deadline;
    jm.missed_deadline = js.spec().has_deadline() &&
                         (js.failed() || js.spec().deadline < js.finish_time());
    jm.maps = js.num_maps();
    jm.reduces = js.num_reduces();
    jm.map_task_seconds = js.map_task_seconds();
    jm.shuffle_seconds = js.shuffle_seconds();
    jm.reduce_task_seconds = js.reduce_task_seconds();
    jm.failed = js.failed();
    jobs_.push_back(jm);
    last_finish_ = std::max(last_finish_, js.finish_time());
  });

  // Wasted work is costed with the same Eq. 2 estimator E-Ant itself uses,
  // so "energy spent on discarded attempts" is directly comparable to the
  // per-task energies the scheduler learned from.
  jt_.set_waste_listener(
      [this](const mr::TaskReport& r, mr::WasteReason reason) {
        wasted_energy_ += model_.estimate(r);
        if (reason == mr::WasteReason::kPreempted) {
          ++tenant_preemptions_[jt_.job(r.spec.job).spec().tenant];
        }
        // Corruption-attributed waste is a labelled subset of wasted_energy_,
        // so the corruption bill always sums into the total.
        if (reason == mr::WasteReason::kCorruption) {
          wasted_energy_corruption_ += model_.estimate(r);
        }
      });
}

RunMetrics MetricsCollector::finalize(const std::string& scheduler_name) {
  RunMetrics rm;
  rm.scheduler_name = scheduler_name;
  rm.makespan = last_finish_;
  rm.jobs = jobs_;
  rm.total_tasks = total_tasks_;
  rm.local_maps = local_maps_;
  rm.rack_local_maps = rack_local_maps_;
  rm.total_maps = total_maps_;
  rm.jobs_failed = jt_.jobs_failed();
  rm.killed_attempts = jt_.killed_attempts();
  rm.failed_attempts = jt_.failed_attempts();
  rm.lost_map_outputs = jt_.lost_map_outputs();
  rm.wasted_task_seconds = jt_.wasted_task_seconds();
  rm.wasted_energy = wasted_energy_;
  rm.recovery_times = jt_.recovery_times();
  rm.preempted_attempts = jt_.preempted_attempts();
  rm.speculative_launches = jt_.speculative_launches();

  // Per-tenant SLO aggregates (std::map: by_tenant sorted by tenant id).
  // Admission ledgers merge in first: a tenant whose every arrival was
  // rejected still gets a row (zero latencies — rejected jobs never ran and
  // never enter the percentile input, distinctly from deadline misses).
  std::map<workload::TenantId, TenantMetrics> tenants;
  std::map<workload::TenantId, std::vector<double>> latencies;
  if (const mr::AdmissionControl* adm = jt_.admission()) {
    rm.admission_active = true;
    for (const auto& [tenant_id, led] : adm->ledgers()) {
      TenantMetrics& t = tenants[tenant_id];
      t.tenant = tenant_id;
      t.jobs_rejected = led.rejections;
      t.jobs_dropped = led.dropped;
      t.retries = led.retries;
      t.peak_backlog = led.peak_backlog;
      t.backlog_bound = led.bound;
      rm.jobs_rejected += led.rejections;
      rm.jobs_dropped += led.dropped;
      rm.admission_retries += led.retries;
    }
    rm.overload_transitions = adm->transitions();
    rm.time_elevated = adm->time_in(mr::OverloadState::kElevated);
    rm.time_saturated = adm->time_in(mr::OverloadState::kSaturated);
    rm.time_critical = adm->time_in(mr::OverloadState::kCritical);
  }
  for (const auto& j : rm.jobs) {
    TenantMetrics& t = tenants[j.tenant];
    t.tenant = j.tenant;
    ++t.jobs;
    if (j.failed) {
      ++t.jobs_failed;
    } else {
      latencies[j.tenant].push_back(j.completion_time);
    }
    if (j.deadline >= 0.0) {
      ++t.deadline_jobs;
      if (j.missed_deadline) {
        ++t.deadline_misses;
        ++rm.deadline_misses;
      }
    }
    // Goodput: jobs that completed and met their deadline (non-deadlined
    // completions count — finishing is their only obligation).
    if (!j.failed && !j.missed_deadline) ++t.jobs_goodput;
  }
  for (auto& [tenant_id, t] : tenants) {
    const auto& lat = latencies[tenant_id];
    if (!lat.empty()) {
      t.latency_p50 = percentile(lat, 50.0);
      t.latency_p95 = percentile(lat, 95.0);
      t.latency_p99 = percentile(lat, 99.0);
      t.mean_latency = mean_of(lat);
    }
    t.energy = tenant_energy_[tenant_id];
    t.slot_seconds = tenant_slot_seconds_[tenant_id];
    t.preemptions = tenant_preemptions_[tenant_id];
    rm.by_tenant.push_back(t);
  }

  rm.fetch_failures = jt_.fetch_failures();
  rm.fetch_reexecuted_maps = jt_.fetch_reexecuted_maps();
  rm.rereplicated_blocks = jt_.rereplicated_blocks();
  rm.rereplication_mb = jt_.rereplication_mb();
  rm.data_loss_events = jt_.data_loss_events();
  rm.corruptions_injected = jt_.corruptions_injected();
  rm.corruptions_detected = jt_.corruptions_detected();
  rm.corruptions_repaired = jt_.corruptions_repaired();
  rm.corruptions_lost = jt_.corruptions_lost();
  rm.corruptions_latent = jt_.corruptions_latent();
  rm.corrupt_read_failovers = jt_.corrupt_read_failovers();
  rm.shuffle_corruptions = jt_.shuffle_corruptions();
  rm.task_output_corruptions = jt_.task_output_corruptions();
  rm.scrubbed_mb = jt_.scrubbed_mb();
  rm.scrub_passes = jt_.scrub_passes();
  if (!jt_.corruption_detection_latencies().empty()) {
    rm.mean_detection_latency = mean_of(jt_.corruption_detection_latencies());
  }
  rm.wasted_energy_corruption = wasted_energy_corruption_;
  const hdfs::NameNode& nn = jt_.namenode();
  rm.under_replicated_blocks = nn.under_replicated_count();
  if (jt_.rereplication_active() == 0) {
    // With no stream in flight, every short block must be accounted for:
    // recorded lost or sitting in the recovery queue.
    for (hdfs::BlockId b = 0; b < nn.num_blocks(); ++b) {
      if (nn.block_lost(b)) continue;
      if (nn.live_replicas(b) >=
          static_cast<std::size_t>(nn.replication())) {
        continue;
      }
      if (nn.queued_for_rereplication(b)) continue;
      ++rm.replication_violations;
    }
  }

  const Seconds elapsed = jt_.simulator().now();
  for (const auto& type_name : cluster_.type_names()) {
    TypeMetrics tm;
    tm.type_name = type_name;
    double util_sum = 0.0;
    for (cluster::MachineId id : cluster_.machines_of_type(type_name)) {
      auto& m = cluster_.machine(id);
      tm.energy += m.energy();
      if (elapsed > 0.0) util_sum += m.utilization_integral() / elapsed;
      ++tm.machine_count;
    }
    tm.avg_utilization =
        tm.machine_count == 0 ? 0.0 : util_sum / tm.machine_count;
    if (auto it = maps_by_type_.find(type_name); it != maps_by_type_.end()) {
      tm.completed_maps = it->second;
    }
    if (auto it = reduces_by_type_.find(type_name);
        it != reduces_by_type_.end()) {
      tm.completed_reduces = it->second;
    }
    if (auto it = tasks_by_type_app_.find(type_name);
        it != tasks_by_type_app_.end()) {
      tm.tasks_by_app = it->second;
    }
    rm.total_energy += tm.energy;
    rm.by_type.push_back(std::move(tm));
  }
  return rm;
}

}  // namespace eant::exp
