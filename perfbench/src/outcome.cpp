#include "outcome.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "audit/digest.h"
#include "common/error.h"

namespace eant::perfbench {
namespace {

/// Nearest rank (1-based) of percentile `pct` in `n` sorted samples.
std::size_t nearest_rank(double pct, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::optional<Tail> best;
  for (const double pct : kTailLadder) {
    if (n == 0) break;
    const std::size_t rank = nearest_rank(pct, n);
    if (n - rank < kTailMinBeyond) break;
    best = Tail{pct, samples[rank - 1], n, n - rank};
  }
  return best;
}

double DeadlineStats::miss_frac() const {
  return deadlined == 0 ? 0.0
                        : static_cast<double>(missed) /
                              static_cast<double>(deadlined);
}

DeadlineStats deadline_stats(const std::vector<workload::JobSpec>& submitted,
                             const exp::RunMetrics& metrics) {
  DeadlineStats s;
  for (const auto& spec : submitted) {
    if (spec.has_deadline()) ++s.deadlined;
  }
  std::size_t ran = 0;
  for (const auto& job : metrics.jobs) {
    if (job.deadline < 0.0) continue;
    ++ran;
    if (job.missed_deadline) ++s.missed;
  }
  EANT_ASSERT(ran <= s.deadlined, "more deadlined jobs ran than submitted");
  s.dropped = s.deadlined - ran;
  s.missed += s.dropped;
  return s;
}

Outcome summarize(const std::vector<workload::JobSpec>& submitted,
                  const exp::RunMetrics& metrics, exp::Run& run) {
  const mr::JobTracker& jt = run.job_tracker();
  Outcome o;
  o.energy_kj = metrics.total_energy_kj();
  o.makespan_s = metrics.makespan;
  o.local_map_frac = metrics.locality_fraction();
  o.rack_local_frac = metrics.rack_locality_fraction();
  o.submitted = submitted.size();
  o.completed = jt.jobs_completed();
  o.failed = jt.jobs_failed();
  o.dropped = jt.jobs_dropped();
  o.jobs_done_frac =
      o.submitted == 0 ? 0.0
                       : static_cast<double>(o.completed) /
                             static_cast<double>(o.submitted);
  o.deadlines = deadline_stats(submitted, metrics);
  o.tasks = metrics.total_tasks;
  o.events = run.simulator().executed();

  std::vector<double> times;
  times.reserve(metrics.jobs.size());
  audit::Fnv1a digest;
  for (const auto& job : metrics.jobs) {
    if (!job.failed) times.push_back(job.completion_time);
    digest.mix(static_cast<std::uint64_t>(job.id));
    digest.mix(static_cast<std::uint64_t>(job.tenant));
    digest.mix(job.submit_time);
    digest.mix(job.completion_time);
    digest.mix(static_cast<std::uint64_t>(job.failed ? 1 : 0));
  }
  std::sort(times.begin(), times.end());
  EANT_ASSERT(!times.empty(), "no job completed");
  o.job_time_p50_s = times[nearest_rank(50.0, times.size()) - 1];
  const std::optional<Tail> tail = tail_percentile(std::move(times));
  EANT_ASSERT(tail.has_value(), "too few completed jobs for a tail percentile");
  o.tail = *tail;

  digest.mix(o.energy_kj);
  digest.mix(o.makespan_s);
  digest.mix(static_cast<std::uint64_t>(metrics.local_maps));
  digest.mix(static_cast<std::uint64_t>(metrics.rack_local_maps));
  digest.mix(static_cast<std::uint64_t>(metrics.total_maps));
  digest.mix(static_cast<std::uint64_t>(o.tasks));
  digest.mix(static_cast<std::uint64_t>(o.dropped));
  digest.mix(o.events);
  o.outputs_digest = digest.value();
  if (metrics.audited) {
    o.audit_digest = metrics.determinism_digest;
    o.audit_records = metrics.audit.digest_records;
  }
  return o;
}

std::vector<std::string> check_run(const Outcome& outcome,
                                   const exp::RunMetrics& metrics,
                                   exp::Run& run) {
  std::vector<std::string> failures;
  const auto fail_if = [&](bool bad, const std::string& what) {
    if (bad) failures.push_back(what);
  };
  fail_if(outcome.completed + outcome.failed + outcome.dropped !=
              outcome.submitted,
          "completed + failed + dropped jobs != jobs submitted");
  fail_if(metrics.jobs.size() != outcome.completed + outcome.failed,
          "per-job metrics do not cover every job that ran");
  fail_if(run.job_tracker().rereplication_active() != 0,
          "block recovery still in flight after the run");

  if (run.auditor() != nullptr) {
    fail_if(!metrics.audited, "audited run reported no audit");
    fail_if(!metrics.audit.clean(),
            "audit found errors: " + metrics.audit.summary());
    fail_if(metrics.audit.digest_records == 0,
            "audit digest covers no records");
  }
  if (const mr::AdmissionControl* adm = run.job_tracker().admission()) {
    for (const auto& [tenant, led] : adm->ledgers()) {
      const std::string who = "tenant " + std::to_string(tenant);
      fail_if(led.arrivals != led.admitted + led.dropped,
              who + ": admission ledger open (arrivals != admitted + dropped)");
      fail_if(led.retries != led.retry_arrivals,
              who + ": admission ledger open (retries never fired)");
      fail_if(led.backlog != 0, who + ": admitted jobs left unfinished");
    }
  }
  fail_if(metrics.corruptions_injected !=
              metrics.corruptions_detected + metrics.corruptions_latent,
          "corruption ledger open (injected != detected + latent)");
  fail_if(metrics.corruptions_detected <
              metrics.corruptions_repaired + metrics.corruptions_lost,
          "corruption ledger open (more settled than detected)");
  return failures;
}

std::string outcome_json(const Outcome& o) {
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "\"energy_kj\": %.17g, \"makespan_s\": %.17g, "
      "\"job_time_p50_s\": %.17g, \"job_time_tail_s\": %.17g, "
      "\"tail_percentile\": %.17g, \"tail_samples\": %zu, "
      "\"tail_beyond\": %zu, \"local_map_frac\": %.17g, "
      "\"rack_local_frac\": %.17g, \"jobs_done_frac\": %.17g, "
      "\"deadlined\": %zu, \"deadline_missed\": %zu, "
      "\"deadline_dropped\": %zu, \"deadline_miss_frac\": %.17g, "
      "\"submitted\": %zu, \"completed\": %zu, \"failed\": %zu, "
      "\"dropped\": %zu, \"tasks\": %zu, \"events\": %" PRIu64 ", "
      "\"outputs_digest\": \"%016" PRIx64 "\", "
      "\"audit_digest\": \"%016" PRIx64 "\", \"audit_records\": %" PRIu64,
      o.energy_kj, o.makespan_s, o.job_time_p50_s, o.tail.value,
      o.tail.percentile, o.tail.samples, o.tail.beyond, o.local_map_frac,
      o.rack_local_frac, o.jobs_done_frac, o.deadlines.deadlined,
      o.deadlines.missed, o.deadlines.dropped, o.deadlines.miss_frac(),
      o.submitted, o.completed, o.failed, o.dropped, o.tasks, o.events,
      o.outputs_digest, o.audit_digest, o.audit_records);
  return buf;
}

}  // namespace eant::perfbench
