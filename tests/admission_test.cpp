// Overload-protection suite: detector hysteresis, admission verdicts and
// retry backoff without a simulator, digest neutrality of the disabled
// subsystem, bounded per-tenant queues under sustained bursty +
// diurnal overload, backpressure retry/conservation accounting, brownout
// engagement, termination with the retry budget exhausted, determinism, and
// the bench CLI's double-argument validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "exp/builders.h"
#include "exp/cli.h"
#include "exp/runner.h"
#include "mapreduce/admission.h"
#include "sched/capacity.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"

namespace eant {
namespace {

/// Preset-rate multiplier that saturates the paper fleet (the preset's base
/// rates target the idle 48-hour SLO bake-off; the knee is near 45x).
constexpr double kOverloadRate = 100.0;

struct Mix {
  sched::TenantShareConfig shares;
  std::vector<workload::JobSpec> jobs;
};

Mix make_mix(double rate, Seconds horizon, std::uint64_t seed) {
  auto cfg = tenancy::presets::three_tenant_mix(horizon, rate);
  Mix out;
  for (const auto& t : cfg.tenants) {
    out.shares.tenants.push_back(
        sched::TenantQueue{t.profile.tenant, t.profile.name, t.profile.weight});
  }
  const tenancy::TrafficGenerator gen(std::move(cfg));
  Rng rng(seed);
  out.jobs = gen.generate(rng);
  return out;
}

exp::RunConfig overload_config(const Mix& mix, std::uint64_t seed,
                               bool admission) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.audit.enabled = true;
  cfg.tenancy = mix.shares;
  if (admission) {
    cfg.job_tracker.admission.enabled = true;
    for (const auto& q : mix.shares.tenants) {
      cfg.job_tracker.admission.tenants.push_back(
          mr::AdmissionTenantPolicy{q.tenant, q.weight});
    }
  }
  return cfg;
}

exp::RunMetrics run_mix(const Mix& mix, const exp::RunConfig& cfg) {
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  run.submit(mix.jobs);
  run.execute();
  return run.metrics();
}

/// Maximum number of simultaneously admitted (submitted, unfinished) jobs,
/// reconstructed from the per-job intervals.
std::size_t max_concurrent(const std::vector<exp::JobMetrics>& jobs) {
  std::vector<std::pair<Seconds, int>> events;
  events.reserve(2 * jobs.size());
  for (const auto& j : jobs) {
    events.emplace_back(j.submit_time, +1);
    events.emplace_back(j.submit_time + j.completion_time, -1);
  }
  std::sort(events.begin(), events.end());
  std::size_t depth = 0, peak = 0;
  for (const auto& [t, d] : events) {
    depth = static_cast<std::size_t>(static_cast<long>(depth) + d);
    peak = std::max(peak, depth);
  }
  return peak;
}

// --- OverloadDetector -------------------------------------------------------

TEST(OverloadDetector, EscalatesImmediatelyDecaysOneLevelWithHysteresis) {
  mr::AdmissionConfig cfg;
  cfg.ewma_alpha = 1.0;  // no smoothing: the test drives the raw signals
  mr::OverloadDetector det(cfg);
  EXPECT_EQ(det.state(), mr::OverloadState::kNormal);

  // Below every threshold: Normal.
  EXPECT_EQ(det.fold(0.5, 0.5, 0.0), mr::OverloadState::kNormal);

  // A backlog past the critical threshold escalates straight to Critical —
  // no one-level-per-tick ramp on the way up.
  EXPECT_EQ(det.fold(1.0, mr::kCriticalBacklog + 0.5, 0.0),
            mr::OverloadState::kCritical);

  // Signals drop to zero: decay is one level per tick, not a jump.
  EXPECT_EQ(det.fold(0.0, 0.0, 0.0), mr::OverloadState::kSaturated);
  EXPECT_EQ(det.fold(0.0, 0.0, 0.0), mr::OverloadState::kElevated);
  EXPECT_EQ(det.fold(0.0, 0.0, 0.0), mr::OverloadState::kNormal);

  // Hysteresis: occupancy below the escalation threshold but above
  // hysteresis * threshold holds the level; only dropping below the
  // hysteresis band releases it.
  EXPECT_EQ(det.fold(mr::kElevatedOccupancy + 0.05, 0.0, 0.0),
            mr::OverloadState::kElevated);
  const double held = mr::kElevatedOccupancy * mr::kHysteresis + 0.01;
  EXPECT_EQ(det.fold(held, 0.0, 0.0), mr::OverloadState::kElevated);
  const double released = mr::kElevatedOccupancy * mr::kHysteresis - 0.05;
  EXPECT_EQ(det.fold(released, 0.0, 0.0), mr::OverloadState::kNormal);

  EXPECT_STREQ(mr::overload_state_name(mr::OverloadState::kNormal), "normal");
  EXPECT_STREQ(mr::overload_state_name(mr::OverloadState::kCritical),
               "critical");
}

TEST(OverloadDetector, OccupancyPlusSlackPressureMeansSaturated) {
  mr::AdmissionConfig cfg;
  cfg.ewma_alpha = 1.0;
  mr::OverloadDetector det(cfg);
  // Full occupancy alone is only Elevated...
  EXPECT_EQ(det.fold(1.0, 0.0, 0.0), mr::OverloadState::kElevated);
  // ...but full occupancy with most deadlined jobs predicted to miss is
  // Saturated even while the queue itself is short.
  EXPECT_EQ(det.fold(1.0, 0.0, mr::kSlackPressureThreshold + 0.1),
            mr::OverloadState::kSaturated);
}

// --- AdmissionControl decisions -----------------------------------------------

workload::JobSpec tenant_job(workload::TenantId tenant,
                             Seconds deadline = -1.0) {
  workload::JobSpec spec;
  spec.tenant = tenant;
  spec.deadline = deadline;
  return spec;
}

/// Tenant 0 (weight 1, the lowest) and tenant 1 (weight 3), with unsmoothed
/// detector signals so one tick sets the state.
mr::AdmissionConfig two_tenant_config() {
  mr::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.ewma_alpha = 1.0;
  cfg.tenants = {{0, 1.0}, {1, 3.0}};
  return cfg;
}

TEST(AdmissionControl, QueueFullAtTheTenantsBound) {
  mr::AdmissionControl ac(two_tenant_config(), nullptr);
  const workload::JobSpec spec = tenant_job(0);
  const std::size_t bound = ac.ledgers().at(0).bound;
  EXPECT_EQ(bound, 8u);  // ceil(weight 1 * kQueueBoundPerWeight 8)
  for (mr::JobId id = 0; id < bound; ++id) {
    ASSERT_EQ(ac.decide(spec, 16, 0, 0.0), mr::AdmissionVerdict::kAdmit);
    ac.note_admitted(id, spec, 0.0);
  }
  EXPECT_EQ(ac.decide(spec, 16, 0, 0.0), mr::AdmissionVerdict::kQueueFull);
  // Deadlines do not bypass the bound, and the other tenant has its own.
  EXPECT_EQ(ac.decide(tenant_job(0, 1e6), 16, 0, 0.0),
            mr::AdmissionVerdict::kQueueFull);
  EXPECT_EQ(ac.decide(tenant_job(1), 16, 0, 0.0),
            mr::AdmissionVerdict::kAdmit);
  // A finished job frees its place in the queue.
  ac.note_job_finished(0, spec, 1.0);
  EXPECT_EQ(ac.decide(spec, 16, 0, 1.0), mr::AdmissionVerdict::kAdmit);
}

TEST(AdmissionControl, ShedsNonDeadlinedWorkUnderSaturatedAndCritical) {
  const workload::JobSpec low = tenant_job(0);
  const workload::JobSpec high = tenant_job(1);
  const workload::JobSpec deadlined = tenant_job(0, 1e6);
  {
    // Critical: every tenant's non-deadlined work is shed.
    mr::AdmissionControl ac(two_tenant_config(), nullptr);
    ASSERT_EQ(ac.tick(1.0, mr::kCriticalBacklog + 0.5, 0.0, 0.0),
              mr::OverloadState::kCritical);
    EXPECT_EQ(ac.decide(low, 16, 0, 0.0), mr::AdmissionVerdict::kShed);
    EXPECT_EQ(ac.decide(high, 16, 0, 0.0), mr::AdmissionVerdict::kShed);
    EXPECT_EQ(ac.decide(deadlined, 16, 0, 0.0), mr::AdmissionVerdict::kAdmit);
  }
  {
    // Saturated: only the lowest-weight tenant's non-deadlined work.
    mr::AdmissionControl ac(two_tenant_config(), nullptr);
    ASSERT_EQ(ac.tick(1.0, 0.0, mr::kSlackPressureThreshold + 0.1, 0.0),
              mr::OverloadState::kSaturated);
    EXPECT_EQ(ac.decide(low, 16, 0, 0.0), mr::AdmissionVerdict::kShed);
    EXPECT_EQ(ac.decide(high, 16, 0, 0.0), mr::AdmissionVerdict::kAdmit);
    EXPECT_EQ(ac.decide(deadlined, 16, 0, 0.0), mr::AdmissionVerdict::kAdmit);
  }
  {
    // Elevated sheds nothing.
    mr::AdmissionControl ac(two_tenant_config(), nullptr);
    ASSERT_EQ(ac.tick(1.0, 0.0, 0.0, 0.0), mr::OverloadState::kElevated);
    EXPECT_EQ(ac.decide(low, 16, 0, 0.0), mr::AdmissionVerdict::kAdmit);
  }
}

TEST(AdmissionControl, InfeasibleOnceATaskDurationIsKnown) {
  mr::AdmissionControl ac(two_tenant_config(), nullptr);
  const workload::JobSpec tight = tenant_job(1, 100.0);
  // No task duration observed yet: nothing to estimate the wait with.
  EXPECT_EQ(ac.decide(tight, 10, 1000, 0.0), mr::AdmissionVerdict::kAdmit);
  ac.note_task_duration(20.0);
  // Estimated wait 1000 tasks * 20 s / 10 slots, plus one 20 s task, ends
  // long after the deadline.
  EXPECT_EQ(ac.decide(tight, 10, 1000, 0.0),
            mr::AdmissionVerdict::kInfeasible);
  // An empty queue leaves one task time: 80 + 20 s meets the deadline
  // exactly, 80.5 + 20 s overruns it.
  EXPECT_EQ(ac.decide(tight, 10, 0, 80.0), mr::AdmissionVerdict::kAdmit);
  EXPECT_EQ(ac.decide(tight, 10, 0, 80.5), mr::AdmissionVerdict::kInfeasible);
  // Work without a deadline, or a fleet without slots, skips the test.
  EXPECT_EQ(ac.decide(tenant_job(1), 10, 1000, 0.0),
            mr::AdmissionVerdict::kAdmit);
  EXPECT_EQ(ac.decide(tight, 0, 1000, 0.0), mr::AdmissionVerdict::kAdmit);
}

TEST(AdmissionControl, RetryBackoffIsCappedJitteredAndBudgeted) {
  mr::AdmissionConfig cfg = two_tenant_config();
  cfg.retry_seed = 11;
  mr::AdmissionControl ac(cfg, nullptr);
  const workload::JobSpec spec = tenant_job(0);
  // The last retry, n = 4, reaches the cap: 30 s * 2^4 = 480 s.
  for (int n = 0; n < mr::kMaxRetries; ++n) {
    Seconds delay = 0.0;
    ASSERT_TRUE(
        ac.note_rejection(spec, mr::AdmissionVerdict::kShed, n, &delay));
    const Seconds backoff =
        std::min(mr::kRetryBase * std::pow(2.0, n), mr::kRetryCap);
    EXPECT_GE(delay, backoff) << "retry " << n;
    EXPECT_LT(delay, (1.0 + mr::kRetryJitter) * backoff) << "retry " << n;
  }
  // The budget is spent: the next rejection drops the job.
  Seconds delay = 0.0;
  EXPECT_FALSE(ac.note_rejection(spec, mr::AdmissionVerdict::kShed,
                                 mr::kMaxRetries, &delay));
  const mr::TenantAdmissionLedger& led = ac.ledgers().at(0);
  EXPECT_EQ(led.rejections, 6u);
  EXPECT_EQ(led.retries, 5u);
  EXPECT_EQ(led.dropped, 1u);
}

// --- digest neutrality ------------------------------------------------------

TEST(Admission, DisabledSubsystemIsDigestNeutral) {
  const Mix mix = make_mix(10.0, 1800.0, 3);

  const exp::RunMetrics plain = run_mix(mix, overload_config(mix, 3, false));

  // Populate every admission knob but leave the master switch off: the run
  // must schedule no detector events, consume no RNG, and reproduce the
  // plain digest bit for bit.
  exp::RunConfig cfg = overload_config(mix, 3, false);
  cfg.job_tracker.admission.retry_seed = 99;
  for (const auto& q : mix.shares.tenants) {
    cfg.job_tracker.admission.tenants.push_back(
        mr::AdmissionTenantPolicy{q.tenant, q.weight});
  }
  const exp::RunMetrics loaded = run_mix(mix, cfg);

  ASSERT_GT(plain.audit.digest_records, 0u);
  EXPECT_EQ(plain.determinism_digest, loaded.determinism_digest);
  EXPECT_EQ(plain.audit.digest_records, loaded.audit.digest_records);
  EXPECT_FALSE(loaded.admission_active);
  EXPECT_EQ(loaded.jobs_rejected, 0u);
}

// --- bounded queues under overload ------------------------------------------

TEST(Admission, OverloadBoundsQueuesWithAdmissionGrowsWithout) {
  // The trace mixes the bursty (MMPP-2) interactive stream, the diurnal
  // batch stream and the flat background stream, all at ~2x the knee.
  const Mix mix = make_mix(kOverloadRate, 1800.0, 7);

  const exp::RunMetrics off = run_mix(mix, overload_config(mix, 7, false));
  const exp::RunMetrics on = run_mix(mix, overload_config(mix, 7, true));

  ASSERT_TRUE(on.admission_active);
  EXPECT_TRUE(on.audit.clean()) << on.audit.summary();
  EXPECT_TRUE(off.audit.clean()) << off.audit.summary();
  EXPECT_GT(on.jobs_rejected, 0u);

  // Every tenant's admitted-but-unfinished peak respects its weighted bound.
  std::size_t bound_sum = 0;
  for (const auto& t : on.by_tenant) {
    ASSERT_GT(t.backlog_bound, 0u) << "tenant " << t.tenant;
    EXPECT_LE(t.peak_backlog, t.backlog_bound) << "tenant " << t.tenant;
    bound_sum += t.backlog_bound;
  }
  const std::size_t depth_on = max_concurrent(on.jobs);
  const std::size_t depth_off = max_concurrent(off.jobs);
  EXPECT_LE(depth_on, bound_sum);
  // Without protection the open-loop backlog grows far past the bounds.
  EXPECT_GT(depth_off, 2 * bound_sum);
}

// --- backpressure accounting ------------------------------------------------

TEST(Admission, RetryConservationNoJobVanishes) {
  const Mix mix = make_mix(60.0, 1200.0, 11);
  const exp::RunMetrics m = run_mix(mix, overload_config(mix, 11, true));

  ASSERT_TRUE(m.admission_active);
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.admission_retries, 0u);

  // Every trace arrival is accounted: it either ran to completion/failure
  // (m.jobs) or was dropped after the retry budget — never lost in the
  // retry loop.  (The auditor's admission-conservation check enforces the
  // same ledger identity; audit.clean() above covers it.)
  EXPECT_EQ(m.jobs.size() + m.jobs_dropped, mix.jobs.size());

  // Rejections are counted apart from deadline misses: rejected jobs never
  // ran, so they cannot also appear as missed-deadline rows.
  std::size_t misses = 0;
  for (const auto& j : m.jobs) {
    if (j.missed_deadline) ++misses;
  }
  EXPECT_EQ(misses, m.deadline_misses);
  EXPECT_GT(m.jobs_rejected, 0u);
}

// --- brownout ---------------------------------------------------------------

TEST(Admission, BrownoutEngagesUnderSaturation) {
  const Mix mix = make_mix(kOverloadRate, 1800.0, 13);
  const exp::RunConfig cfg = overload_config(mix, 13, true);
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  run.submit(mix.jobs);
  run.execute();
  const exp::RunMetrics m = run.metrics();

  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  // The detector both escalated and decayed (transitions count each
  // direction), and spent real time in Saturated — the brownout reactions
  // (speculation off, locality waits dropped, re-replication throttled)
  // were live for that window.
  EXPECT_GE(m.overload_transitions, 3u);
  EXPECT_GT(m.time_saturated, 0.0);
  EXPECT_LT(m.time_elevated + m.time_saturated + m.time_critical, m.makespan);
  // By drain time the overload has passed its peak.
  EXPECT_LT(run.job_tracker().overload_state(), mr::OverloadState::kCritical);
}

// --- retry budget exhaustion ------------------------------------------------

TEST(Admission, ZeroRetryBudgetDropsButRunTerminates) {
  // At 200x the preset rates many jobs run their retry budget down to zero
  // and are dropped (at 60x none is).
  const Mix mix = make_mix(200.0, 1200.0, 17);
  const exp::RunMetrics m = run_mix(mix, overload_config(mix, 17, true));

  // Termination itself is the point: dropped jobs must leave jobs_expected_
  // so all_done() can hold with much of the trace never admitted.
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.jobs_dropped, 0u);
  // A job is dropped only after spending its whole budget.
  EXPECT_GE(m.admission_retries,
            static_cast<std::size_t>(mr::kMaxRetries) * m.jobs_dropped);
  EXPECT_EQ(m.jobs.size() + m.jobs_dropped, mix.jobs.size());
}

// --- determinism ------------------------------------------------------------

TEST(Admission, DeterministicAcrossRepeatsSensitiveToSeed) {
  std::vector<std::uint64_t> digests;
  for (const std::uint64_t seed : {21u, 22u}) {
    const Mix mix = make_mix(60.0, 900.0, seed);
    const exp::RunMetrics a = run_mix(mix, overload_config(mix, seed, true));
    const exp::RunMetrics b = run_mix(mix, overload_config(mix, seed, true));
    ASSERT_GT(a.audit.digest_records, 0u);
    EXPECT_EQ(a.determinism_digest, b.determinism_digest);
    EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
    EXPECT_EQ(a.admission_retries, b.admission_retries);
    EXPECT_EQ(a.overload_transitions, b.overload_transitions);
    digests.push_back(a.determinism_digest);
  }
  EXPECT_NE(digests[0], digests[1]);
}

// --- bench CLI --------------------------------------------------------------

TEST(Cli, DoubleArgParsesDefaultsAndRejectsBadInput) {
  {
    const char* argv[] = {"prog", "2.5"};
    exp::Cli cli(2, const_cast<char**>(argv), "prog [x]");
    EXPECT_DOUBLE_EQ(cli.double_arg("x", 1.0, 0.05, 50.0), 2.5);
    cli.done();
  }
  {
    const char* argv[] = {"prog"};
    exp::Cli cli(1, const_cast<char**>(argv), "prog [x]");
    EXPECT_DOUBLE_EQ(cli.double_arg("x", 1.0, 0.05, 50.0), 1.0);
  }
  // NaN, non-numeric, non-positive and partial parses are usage errors:
  // exit 2 with the usage line, not a degenerate run.
  for (const char* bad : {"nan", "bogus", "-1.0", "0", "2.5x", "inf"}) {
    const char* argv[] = {"prog", bad};
    EXPECT_EXIT(
        {
          exp::Cli cli(2, const_cast<char**>(argv), "prog [x]");
          cli.double_arg("x", 1.0, 0.05, 50.0);
        },
        ::testing::ExitedWithCode(2), "")
        << bad;
  }
}

TEST(Cli, BoolArgParsesSpellingsDefaultsAndRejectsBadInput) {
  const auto parse = [](const char* word) {
    const char* argv[] = {"prog", word};
    exp::Cli cli(2, const_cast<char**>(argv), "prog [admission]");
    const bool value = cli.bool_arg("admission", false);
    cli.done();
    return value;
  };
  for (const char* on : {"on", "true", "1", "admission"}) {
    EXPECT_TRUE(parse(on)) << on;
  }
  for (const char* off : {"off", "false", "0"}) {
    EXPECT_FALSE(parse(off)) << off;
  }
  {
    // Absent: the default answers, nothing is consumed.
    const char* argv[] = {"prog"};
    exp::Cli cli(1, const_cast<char**>(argv), "prog [admission]");
    EXPECT_TRUE(cli.bool_arg("admission", true));
    EXPECT_FALSE(cli.bool_arg("admission", false));
    cli.done();
  }
  for (const char* bad : {"yes", "2", "-on", ""}) {
    const char* argv[] = {"prog", bad};
    EXPECT_EXIT(
        {
          exp::Cli cli(2, const_cast<char**>(argv), "prog [admission]");
          cli.bool_arg("admission", false);
        },
        ::testing::ExitedWithCode(2), "")
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace eant
