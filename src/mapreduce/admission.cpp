#include "mapreduce/admission.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "audit/auditor.h"
#include "common/error.h"

namespace eant::mr {
namespace {

/// Backlog thresholds of the Elevated and Saturated levels, in task waves
/// per slot: exactly full, and a quarter-wave queued on top.
constexpr double kElevatedBacklog = 1.0;
constexpr double kSaturatedBacklog = 1.25;
static_assert(kElevatedBacklog <= kSaturatedBacklog &&
                  kSaturatedBacklog <= kCriticalBacklog,
              "backlog thresholds must be ordered");

}  // namespace

const char* overload_state_name(OverloadState s) {
  switch (s) {
    case OverloadState::kNormal:
      return "normal";
    case OverloadState::kElevated:
      return "elevated";
    case OverloadState::kSaturated:
      return "saturated";
    case OverloadState::kCritical:
      return "critical";
  }
  return "?";
}

// --- OverloadDetector ---------------------------------------------------------

OverloadDetector::OverloadDetector(const AdmissionConfig& cfg)
    : alpha_(cfg.ewma_alpha) {}

int OverloadDetector::classify(double scale) const {
  if (backlog_ >= kCriticalBacklog * scale) return 3;
  if (backlog_ >= kSaturatedBacklog * scale ||
      (occ_ >= kElevatedOccupancy * scale &&
       slack_ >= kSlackPressureThreshold * scale)) {
    return 2;
  }
  if (occ_ >= kElevatedOccupancy * scale ||
      backlog_ >= kElevatedBacklog * scale) {
    return 1;
  }
  return 0;
}

OverloadState OverloadDetector::fold(double occupancy, double backlog_per_slot,
                                     double slack_pressure) {
  if (!primed_) {
    occ_ = occupancy;
    backlog_ = backlog_per_slot;
    slack_ = slack_pressure;
    primed_ = true;
  } else {
    occ_ = alpha_ * occupancy + (1.0 - alpha_) * occ_;
    backlog_ = alpha_ * backlog_per_slot + (1.0 - alpha_) * backlog_;
    slack_ = alpha_ * slack_pressure + (1.0 - alpha_) * slack_;
  }
  const int target = classify(1.0);
  if (target > level_) {
    // Escalate immediately: the point of protection is reacting before the
    // backlog compounds.
    level_ = target;
  } else if (classify(kHysteresis) < level_) {
    // De-escalate one level per tick, and only once the smoothed signals
    // clear the hysteresis floor — brownout measures restore in reverse
    // order of shedding, without flapping at a threshold.
    --level_;
  }
  return static_cast<OverloadState>(level_);
}

// --- AdmissionControl ---------------------------------------------------------

AdmissionControl::AdmissionControl(const AdmissionConfig& cfg,
                                   audit::InvariantAuditor* auditor)
    : cfg_(cfg),
      auditor_(auditor),
      detector_(cfg),
      retry_rng_(Rng(cfg.retry_seed).fork(0x0ad)) {
  for (const auto& t : cfg_.tenants) {
    min_weight_ = std::min(min_weight_, t.weight);
    ledger(t.tenant);  // materialise configured tenants up front
  }
}

TenantAdmissionLedger& AdmissionControl::ledger(workload::TenantId tenant) {
  auto it = ledgers_.find(tenant);
  if (it != ledgers_.end()) return it->second;
  TenantAdmissionLedger led;
  for (const auto& t : cfg_.tenants) {
    if (t.tenant == tenant) led.weight = t.weight;
  }
  led.bound = static_cast<std::size_t>(std::max(
      1.0, std::ceil(led.weight * kQueueBoundPerWeight)));
  return ledgers_.emplace(tenant, led).first->second;
}

AdmissionVerdict AdmissionControl::decide(const workload::JobSpec& spec,
                                          int total_slots,
                                          std::size_t pending_tasks,
                                          Seconds now) {
  const TenantAdmissionLedger& led = ledger(spec.tenant);

  // 1. Weighted-fair bounded queue: the tenant's admitted-but-unfinished
  //    backlog may not exceed its weight-proportional bound.
  if (led.backlog >= led.bound) return AdmissionVerdict::kQueueFull;

  // 2. Load shedding: under Critical, every non-deadlined job is turned
  //    away; under Saturated, only the lowest-weight (background) tenants'
  //    non-deadlined work is.  Deadlined work is never shed here — it is
  //    what the shedding protects.
  if (!spec.has_deadline()) {
    if (state_ >= OverloadState::kCritical) return AdmissionVerdict::kShed;
    if (state_ >= OverloadState::kSaturated &&
        led.weight <= min_weight_ + 1e-12) {
      return AdmissionVerdict::kShed;
    }
  }

  // 3. EDF feasibility: a deadlined job whose estimated queue wait plus one
  //    task service time already overruns the deadline would only be
  //    admitted to miss — reject it now so the client can back off.  Needs
  //    at least one observed task duration to estimate with.
  if (spec.has_deadline() && task_samples_ > 0 && total_slots > 0) {
    const double est_wait = static_cast<double>(pending_tasks) * task_s_ewma_ /
                            static_cast<double>(total_slots);
    if (now + (est_wait + task_s_ewma_) > spec.deadline) {
      return AdmissionVerdict::kInfeasible;
    }
  }

  return AdmissionVerdict::kAdmit;
}

void AdmissionControl::note_arrival(const workload::JobSpec& spec) {
  TenantAdmissionLedger& led = ledger(spec.tenant);
  ++led.arrivals;
  led.arrived_mb += spec.input_mb;
}

void AdmissionControl::note_admitted(JobId id, const workload::JobSpec& spec,
                                     Seconds now) {
  TenantAdmissionLedger& led = ledger(spec.tenant);
  ++led.admitted;
  led.admitted_mb += spec.input_mb;
  ++led.backlog;
  led.peak_backlog = std::max(led.peak_backlog, led.backlog);
  if (auditor_ != nullptr && led.backlog > led.bound) {
    std::ostringstream os;
    os << "tenant " << spec.tenant << " backlog " << led.backlog
       << " exceeds bound " << led.bound << " at t=" << now;
    auditor_->report_violation("admission-queue-bound", audit::Severity::kError,
                               os.str());
  }
  admitted_.emplace(id, AdmittedJob{spec.tenant, spec.deadline, false});
}

bool AdmissionControl::note_rejection(const workload::JobSpec& spec,
                                      AdmissionVerdict verdict, int attempt,
                                      Seconds* retry_delay) {
  TenantAdmissionLedger& led = ledger(spec.tenant);
  ++led.rejections;
  if (auditor_ != nullptr) {
    // Entity encodes who was rejected and why: tenant in the high bits, the
    // verdict in the low two.
    auditor_->record(audit::Record::kJobReject,
                     (static_cast<std::uint64_t>(spec.tenant) << 2) |
                         static_cast<std::uint64_t>(verdict));
  }
  if (attempt >= kMaxRetries) {
    ++led.dropped;
    led.dropped_mb += spec.input_mb;
    return false;
  }
  // Capped exponential backoff with deterministic jitter from the dedicated
  // retry stream.  The jitter draw happens on every retry regardless of
  // verdict, so the stream's consumption order is a pure function of the
  // rejection sequence.
  const double factor = std::pow(2.0, static_cast<double>(attempt));
  const Seconds backoff = std::min(kRetryBase * factor, kRetryCap);
  *retry_delay = backoff * (1.0 + kRetryJitter * retry_rng_.uniform());
  ++led.retries;
  if (auditor_ != nullptr) {
    auditor_->record(audit::Record::kJobRetry,
                     static_cast<std::uint64_t>(spec.tenant));
  }
  return true;
}

void AdmissionControl::note_retry_arrival(workload::TenantId tenant) {
  ++ledger(tenant).retry_arrivals;
}

void AdmissionControl::note_first_launch(JobId id) {
  auto it = admitted_.find(id);
  if (it != admitted_.end()) it->second.launched = true;
}

void AdmissionControl::note_job_finished(JobId id,
                                         const workload::JobSpec& spec,
                                         Seconds now) {
  auto it = admitted_.find(id);
  if (it == admitted_.end()) return;  // submitted before admission engaged
  TenantAdmissionLedger& led = ledger(spec.tenant);
  EANT_ASSERT(led.backlog > 0, "admission backlog underflow");
  --led.backlog;
  if (auditor_ != nullptr && it->second.deadline >= 0.0 &&
      !it->second.launched && now > it->second.deadline) {
    // Admitted-then-starved: admission promised the job a queue slot but it
    // never ran a task before its deadline passed.  The admission test that
    // let it in was too optimistic — survivable, but worth flagging.
    std::ostringstream os;
    os << "job " << id << " (tenant " << spec.tenant
       << ") admitted but never launched before deadline " << it->second.deadline
       << " (finished t=" << now << ")";
    auditor_->report_violation("admission-deadline-starved",
                               audit::Severity::kWarning, os.str());
  }
  admitted_.erase(it);
}

void AdmissionControl::note_task_duration(Seconds duration) {
  if (duration <= 0.0) return;
  if (task_samples_ == 0) {
    task_s_ewma_ = duration;
  } else {
    task_s_ewma_ = cfg_.ewma_alpha * duration +
                   (1.0 - cfg_.ewma_alpha) * task_s_ewma_;
  }
  ++task_samples_;
}

OverloadState AdmissionControl::tick(double occupancy, double backlog_per_slot,
                                     double slack_pressure, Seconds now) {
  const OverloadState next =
      detector_.fold(occupancy, backlog_per_slot, slack_pressure);
  if (next != state_) transition_to(next, now);
  return state_;
}

void AdmissionControl::transition_to(OverloadState next, Seconds now) {
  time_in_state_[static_cast<int>(state_)] += now - state_since_;
  state_ = next;
  state_since_ = now;
  ++transitions_;
  if (auditor_ != nullptr) {
    auditor_->record(audit::Record::kOverloadState,
                     static_cast<std::uint64_t>(next));
  }
}

void AdmissionControl::finalize(Seconds now) {
  if (finalized_) return;
  finalized_ = true;
  time_in_state_[static_cast<int>(state_)] += now - state_since_;
  state_since_ = now;
  if (auditor_ == nullptr) return;
  for (const auto& [tenant, led] : ledgers_) {
    // Job conservation: every arrival is eventually admitted or dropped
    // (each submission attempt gets exactly one verdict, and every retry
    // both fires and resolves before the run can drain).
    if (led.arrivals != led.admitted + led.dropped) {
      std::ostringstream os;
      os << "tenant " << tenant << ": arrivals " << led.arrivals
         << " != admitted " << led.admitted << " + dropped " << led.dropped;
      auditor_->report_violation("admission-conservation",
                                 audit::Severity::kError, os.str());
    }
    // Retry conservation: every scheduled backoff fired exactly once.
    if (led.retries != led.retry_arrivals) {
      std::ostringstream os;
      os << "tenant " << tenant << ": retries scheduled " << led.retries
         << " != retries fired " << led.retry_arrivals;
      auditor_->report_violation("admission-retry-conservation",
                                 audit::Severity::kError, os.str());
    }
    // Byte conservation across the retry loop.
    const Megabytes resolved = led.admitted_mb + led.dropped_mb;
    if (std::fabs(led.arrived_mb - resolved) > 1e-6) {
      std::ostringstream os;
      os << "tenant " << tenant << ": arrived " << led.arrived_mb
         << " MB != admitted " << led.admitted_mb << " + dropped "
         << led.dropped_mb << " MB";
      auditor_->report_violation("admission-conservation",
                                 audit::Severity::kError, os.str());
    }
  }
}

std::size_t AdmissionControl::total_rejections() const {
  std::size_t n = 0;
  for (const auto& [t, led] : ledgers_) n += led.rejections;
  return n;
}

}  // namespace eant::mr
