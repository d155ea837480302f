#include "audit/auditor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "common/fp.h"

namespace eant::audit {
namespace {

/// Relative / absolute tolerance for the end-of-run energy cross-check.
/// The two integrals run the same arithmetic in a different association
/// order, so only accumulated rounding separates them.
constexpr double kEnergyRelTol = 1e-6;
constexpr Joules kEnergyAbsTol = 1e-3;

/// Tolerance (MB, relative to flow size) for flow byte conservation.
/// Delivered bytes lag the requested total by at most one rate * dt
/// rounding step when the completion event fires.
constexpr double kFlowRelTol = 1e-6;
constexpr Megabytes kFlowAbsTol = 1e-6;

}  // namespace

std::string severity_name(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

bool AuditReport::clean() const {
  for (const Violation& v : violations)
    if (v.severity == Severity::kError) return false;
  return true;
}

std::size_t AuditReport::total_violations() const {
  std::size_t total = 0;
  for (const Violation& v : violations) total += v.count;
  return total;
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  if (violations.empty()) {
    os << "audit clean, digest " << std::hex << digest << std::dec << " over "
       << digest_records << " records";
    return os.str();
  }
  os << "audit found " << total_violations() << " violation(s) across "
     << violations.size() << " check(s):";
  for (const Violation& v : violations) {
    os << "\n  [" << severity_name(v.severity) << "] " << v.check << " x"
       << v.count << " — first at t=" << v.first_time << ": "
       << v.first_context;
  }
  return os.str();
}

bool audit_env_enabled() {
  const char* raw = std::getenv("EANT_AUDIT");
  if (raw == nullptr) return false;
  std::string value(raw);
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  return value == "1" || value == "on" || value == "true" || value == "yes";
}

InvariantAuditor::InvariantAuditor(sim::Simulator& sim, AuditConfig config)
    : sim_(sim), config_(config) {}

void InvariantAuditor::attach_cluster(cluster::Cluster& cluster) {
  EANT_CHECK(cluster_ == nullptr, "auditor already attached to a cluster");
  cluster_ = &cluster;
  machines_.resize(cluster.size());
  for (cluster::MachineId id = 0; id < cluster.size(); ++id) {
    cluster::Machine& m = cluster.machine(id);
    MachineAudit& audit = machines_[id];
    audit.idle_power = m.type().idle_power;
    audit.alpha = m.type().alpha;
    audit.cores = m.type().cores;
    audit.map_slots = m.type().map_slots;
    audit.reduce_slots = m.type().reduce_slots;
    audit.last_time = sim_.now();
    audit.demand_cores = m.demand_cores();
    audit.up = m.is_up();
    m.set_observer(this);
  }
}

void InvariantAuditor::attach_fabric(net::Fabric& fabric) {
  fabric.set_observer(this);
  fabric_ = &fabric;
}

void InvariantAuditor::on_event_scheduled(Seconds t, sim::EventId id) {
  if (t < sim_.now()) {
    std::ostringstream os;
    os << "event " << id << " scheduled at t=" << t << " which is before now="
       << sim_.now();
    report_violation("heap-causality", Severity::kError, os.str());
  }
}

void InvariantAuditor::on_event_executed(Seconds t, sim::EventId id) {
  if (t < last_executed_) {
    std::ostringstream os;
    os << "event " << id << " executed at t=" << t
       << " after an event at t=" << last_executed_;
    report_violation("time-monotonicity", Severity::kError, os.str());
  }
  last_executed_ = std::max(last_executed_, t);
  record(Record::kSimEvent, id);
}

void InvariantAuditor::on_machine_state(cluster::MachineId id, Seconds now,
                                        double demand_cores, bool up) {
  EANT_CHECK(id < machines_.size(), "machine state for unknown machine");
  MachineAudit& m = machines_[id];
  integrate(m, now);
  if (m.up != up) {
    m.up = up;
    record(Record::kMachinePower, id * 2 + (up ? 1 : 0));
  }
  if (!approx_equal(m.demand_cores, demand_cores)) {
    m.demand_cores = demand_cores;
    // Mix the demand bit pattern: any divergence in RNG draws or scheduling
    // order shifts a task's core demand and shows up here.
    Fnv1a key;
    key.mix(static_cast<std::uint64_t>(id));
    key.mix(demand_cores);
    record(Record::kDemand, key.value());
  }
}

void InvariantAuditor::on_flow_started(net::FlowId id, net::TransferClass cls,
                                       Megabytes total_mb) {
  open_flows_[id] = total_mb;
  Fnv1a key;
  key.mix(id);
  key.mix(static_cast<std::uint64_t>(cls));
  key.mix(total_mb);
  record(Record::kFlowStart, key.value());
}

void InvariantAuditor::on_flow_finished(net::FlowId id, Megabytes requested_mb,
                                        Megabytes delivered_mb) {
  auto it = open_flows_.find(id);
  if (it == open_flows_.end()) {
    std::ostringstream os;
    os << "flow " << id << " finished but was never observed starting";
    report_violation("flow-conservation", Severity::kError, os.str());
  } else {
    if (!approx_equal(it->second, requested_mb)) {
      std::ostringstream os;
      os << "flow " << id << " finished with total " << requested_mb
         << " MB but started with " << it->second << " MB";
      report_violation("flow-conservation", Severity::kError, os.str());
    }
    open_flows_.erase(it);
  }
  // The completion event fired exactly when the last byte should have
  // arrived, so the lazily-advanced byte counter must agree with the
  // requested size up to one rounding step.
  const double tol = kFlowAbsTol + kFlowRelTol * requested_mb;
  if (std::abs(requested_mb - delivered_mb) > tol) {
    std::ostringstream os;
    os << "flow " << id << " requested " << requested_mb
       << " MB but delivered " << delivered_mb << " MB at completion";
    report_violation("flow-conservation", Severity::kError, os.str());
  }
  finished_requested_mb_ += requested_mb;
  record(Record::kFlowFinish, id);
}

void InvariantAuditor::on_flow_aborted(net::FlowId id, Megabytes requested_mb,
                                       Megabytes delivered_mb) {
  auto it = open_flows_.find(id);
  if (it == open_flows_.end()) {
    std::ostringstream os;
    os << "flow " << id << " aborted but was never observed starting";
    report_violation("flow-conservation", Severity::kError, os.str());
  } else {
    if (!approx_equal(it->second, requested_mb)) {
      std::ostringstream os;
      os << "flow " << id << " aborted with total " << requested_mb
         << " MB but started with " << it->second << " MB";
      report_violation("flow-conservation", Severity::kError, os.str());
    }
    open_flows_.erase(it);
  }
  // An aborted flow can never have delivered more than was requested.
  const double tol = kFlowAbsTol + kFlowRelTol * requested_mb;
  if (delivered_mb > requested_mb + tol || delivered_mb < -tol) {
    std::ostringstream os;
    os << "flow " << id << " aborted after delivering " << delivered_mb
       << " MB of a " << requested_mb << " MB request";
    report_violation("flow-conservation", Severity::kError, os.str());
  }
  aborted_delivered_mb_ += std::clamp(delivered_mb, 0.0, requested_mb);
  Fnv1a key;
  key.mix(id);
  key.mix(delivered_mb);
  record(Record::kFlowAbort, key.value());
}

void InvariantAuditor::on_link_state(net::LinkId link, double factor) {
  check_in_range("link-state", factor, 0.0, 1.0,
                 "link capacity factor on state change");
  Fnv1a key;
  key.mix(static_cast<std::uint64_t>(link));
  key.mix(factor);
  record(Record::kLinkState, key.value());
}

InvariantAuditor::TaskAudit& InvariantAuditor::task_audit(
    std::uint64_t job, bool is_map, std::uint64_t index) {
  if (job >= tasks_.size()) tasks_.resize(job + 1);
  std::vector<TaskAudit>& tasks = tasks_[job][is_map ? 0 : 1];
  if (index >= tasks.size()) tasks.resize(index + 1);
  return tasks[index];
}

void InvariantAuditor::on_task_transition(std::uint64_t job, bool is_map,
                                          std::uint64_t index, TaskEvent event,
                                          cluster::MachineId machine) {
  TaskAudit& task = task_audit(job, is_map, index);
  MachineAudit* m =
      machine < machines_.size() ? &machines_[machine] : nullptr;

  const auto context = [&](const char* what) {
    std::ostringstream os;
    os << what << ": " << (is_map ? "map" : "reduce") << " task " << job << '/'
       << index << " on machine " << machine << " (done=" << task.done
       << ", attempts_running=" << task.attempts_running << ')';
    return os.str();
  };

  switch (event) {
    case TaskEvent::kLaunch:
      // Legal from pending, or as the one speculative twin of a running
      // attempt.  Launching a completed task or a third attempt is a
      // scheduler bug.
      if (task.done)
        report_violation("task-state-machine", Severity::kError,
                         context("launch of a completed task"));
      else if (task.attempts_running >= 2)
        report_violation("task-state-machine", Severity::kError,
                         context("third concurrent attempt launched"));
      ++task.attempts_running;
      if (m != nullptr) {
        int& running = is_map ? m->running_maps : m->running_reduces;
        const int slots = is_map ? m->map_slots : m->reduce_slots;
        ++running;
        if (running > slots) {
          std::ostringstream os;
          os << (is_map ? "map" : "reduce") << " attempts on machine "
             << machine << " reached " << running << " with only " << slots
             << " slots";
          report_violation("slot-capacity", Severity::kError, os.str());
        }
      }
      record(Record::kTaskLaunch, (job << 20) ^ (index << 1) ^
                                      (is_map ? 1 : 0) ^ (machine << 44));
      break;

    case TaskEvent::kFinish:
    case TaskEvent::kOrphanCommit:
      if (task.attempts_running < 1)
        report_violation("task-state-machine", Severity::kError,
                         context(event == TaskEvent::kFinish
                                     ? "finish without a running attempt"
                                     : "orphan commit without a running attempt"));
      if (task.done) {
        report_violation("task-state-machine", Severity::kError,
                         context(event == TaskEvent::kFinish
                                     ? "second finish of a completed task"
                                     : "orphan commit of a completed task"));
        // A second commit without an intervening revert would credit the
        // task's work (and the energy attributed to it) twice — the classic
        // failover double-count when a stale completion slips past fencing.
        report_violation("double-counted-energy", Severity::kError,
                         context("task committed twice across epochs"));
      }
      task.done = true;
      task.attempts_running = std::max(0, task.attempts_running - 1);
      if (m != nullptr) {
        int& running = is_map ? m->running_maps : m->running_reduces;
        running = std::max(0, running - 1);
      }
      record(event == TaskEvent::kFinish ? Record::kTaskFinish
                                         : Record::kOrphanCommit,
             (job << 20) ^ (index << 1) ^ (is_map ? 1 : 0));
      break;

    case TaskEvent::kFail:
    case TaskEvent::kKill:
    case TaskEvent::kOrphanRequeue:
      if (task.attempts_running < 1)
        report_violation(
            "task-state-machine", Severity::kError,
            context(event == TaskEvent::kFail
                        ? "fail without a running attempt"
                        : event == TaskEvent::kKill
                              ? "kill without a running attempt"
                              : "orphan requeue without a running attempt"));
      task.attempts_running = std::max(0, task.attempts_running - 1);
      if (m != nullptr) {
        int& running = is_map ? m->running_maps : m->running_reduces;
        running = std::max(0, running - 1);
      }
      record(event == TaskEvent::kFail
                 ? Record::kTaskFail
                 : event == TaskEvent::kKill ? Record::kTaskKill
                                             : Record::kOrphanRequeue,
             (job << 20) ^ (index << 1) ^ (is_map ? 1 : 0));
      break;

    case TaskEvent::kRevertDone:
      // Only a completed map whose host vanished can be reverted to pending.
      if (!task.done)
        report_violation("task-state-machine", Severity::kError,
                         context("revert of a task that is not done"));
      // The work no longer counts, so a later re-commit is legitimate.
      task.done = false;
      record(Record::kTaskRevert,
             (job << 20) ^ (index << 1) ^ (is_map ? 1 : 0));
      break;
  }
}

void InvariantAuditor::on_master_epoch(std::uint64_t epoch) {
  if (epoch <= last_epoch_) {
    std::ostringstream os;
    os << "master epoch advanced to " << epoch << " but epoch " << last_epoch_
       << " was already observed — fencing cannot distinguish the regimes";
    report_violation("epoch-monotonicity", Severity::kError, os.str());
  }
  last_epoch_ = std::max(last_epoch_, epoch);
  record(Record::kEpoch, epoch);
}

void InvariantAuditor::record(Record type, std::uint64_t entity) {
  digest_.mix(sim_.now());
  digest_.mix(static_cast<std::uint64_t>(type));
  digest_.mix(entity);
  ++digest_records_;
}

void InvariantAuditor::check_in_range(const char* check, double value,
                                      double lo, double hi,
                                      const std::string& context) {
  if (std::isfinite(value) && value >= lo && value <= hi) return;
  std::ostringstream os;
  os << context << ": value " << value << " outside [" << lo << ", " << hi
     << ']';
  report_violation(check, Severity::kError, os.str());
}

void InvariantAuditor::report_violation(const char* check, Severity severity,
                                        const std::string& context) {
  if (config_.abort_on_violation) {
    std::ostringstream os;
    os << "audit check '" << check << "' failed at t=" << sim_.now() << ": "
       << context;
    throw InvariantError(os.str());
  }
  auto [it, inserted] = violations_.try_emplace(check);
  Violation& v = it->second;
  if (inserted) {
    v.check = check;
    v.severity = severity;
    v.first_time = sim_.now();
    v.first_context = context;
  }
  ++v.count;
}

std::size_t InvariantAuditor::violations() const {
  std::size_t total = 0;
  for (const auto& [check, v] : violations_) total += v.count;
  return total;
}

void InvariantAuditor::integrate(MachineAudit& m, Seconds now) {
  const Seconds dt = now - m.last_time;
  if (dt > 0.0 && m.up) {
    const double u = std::clamp(m.demand_cores / m.cores, 0.0, 1.0);
    m.energy += (m.idle_power + m.alpha * u) * dt;
  }
  m.last_time = std::max(m.last_time, now);
}

AuditReport InvariantAuditor::finalize() {
  if (cluster_ != nullptr) {
    for (cluster::MachineId id = 0; id < machines_.size(); ++id) {
      MachineAudit& m = machines_[id];
      integrate(m, sim_.now());
      const Joules expected = cluster_->machine(id).energy();
      const double tol = kEnergyAbsTol + kEnergyRelTol * std::abs(expected);
      if (std::abs(m.energy - expected) > tol) {
        std::ostringstream os;
        os << "machine " << id << " audited energy " << m.energy
           << " J vs exact " << expected << " J (tolerance " << tol << " J)";
        report_violation("energy-conservation", Severity::kError, os.str());
      }
    }
  }

  if (fabric_ != nullptr) {
    // Fabric-wide byte conservation, robust to aborts and re-rating: the
    // per-class byte counters must account for exactly the finished flows'
    // requested bytes plus the aborted flows' delivered partials, give or
    // take what is still in flight.
    const net::FabricMetrics fm = fabric_->metrics();
    Megabytes in_flight_allowance = 0.0;
    for (const auto& [id, requested] : open_flows_)
      in_flight_allowance += requested;
    const Megabytes lo = finished_requested_mb_ + aborted_delivered_mb_;
    const Megabytes hi = lo + in_flight_allowance;
    const double tol =
        kFlowAbsTol + kFlowRelTol * std::max(std::abs(hi), 1.0);
    if (fm.total_mb() < lo - tol || fm.total_mb() > hi + tol) {
      std::ostringstream os;
      os << "fabric accounted " << fm.total_mb()
         << " MB but flow lifecycle implies [" << lo << ", " << hi << "] MB ("
         << fm.flows_completed << " completed, " << fm.flows_aborted
         << " aborted, " << fm.flows_failed << " failed, " << open_flows_.size()
         << " open)";
      report_violation("flow-conservation", Severity::kError, os.str());
    }
  }

  // Attempts still running at end of run are fine (the workload may have
  // been truncated), but negative counters would mean the transition stream
  // itself was inconsistent — those were already flagged per event.

  AuditReport report;
  report.digest = digest_.value();
  report.digest_records = digest_records_;
  for (const auto& [check, v] : violations_) report.violations.push_back(v);
  return report;
}

}  // namespace eant::audit
