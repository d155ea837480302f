// Self-tests of the benchmark's own logic: the tail-percentile rule, the
// deadline accounting, the correctness gate, the traced loop's event
// classification, and that tracing leaves the simulation untouched.
//
// Build and run: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "bench_common.h"
#include "exp/builders.h"
#include "net/topology.h"
#include "outcome.h"
#include "timed.h"
#include "trace.h"
#include "workloads.h"

namespace eant::perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond) {
  const auto t100 = tail_percentile(one_to(100));
  ASSERT_TRUE(t100.has_value());
  EXPECT_DOUBLE_EQ(t100->percentile, 90.0);
  EXPECT_DOUBLE_EQ(t100->value, 90.0);
  EXPECT_EQ(t100->samples, 100u);
  EXPECT_EQ(t100->beyond, 10u);

  const auto t1000 = tail_percentile(one_to(1000));
  ASSERT_TRUE(t1000.has_value());
  EXPECT_DOUBLE_EQ(t1000->percentile, 99.0);  // p99.5 has only 5 beyond
  EXPECT_EQ(t1000->beyond, 10u);

  const auto t30 = tail_percentile(one_to(30));
  ASSERT_TRUE(t30.has_value());
  EXPECT_DOUBLE_EQ(t30->percentile, 60.0);  // p70 has only 9 beyond
  EXPECT_DOUBLE_EQ(t30->value, 18.0);
  EXPECT_EQ(t30->samples, 30u);
  EXPECT_EQ(t30->beyond, 12u);
}

TEST(TailPercentile, NeedsTwentySamplesForAnyTail) {
  EXPECT_FALSE(tail_percentile(one_to(19)).has_value());
  EXPECT_FALSE(tail_percentile({}).has_value());
  const auto t20 = tail_percentile(one_to(20));
  ASSERT_TRUE(t20.has_value());
  EXPECT_DOUBLE_EQ(t20->percentile, 50.0);
  EXPECT_EQ(t20->beyond, 10u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(250);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  const auto t = tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 95.0);
  EXPECT_DOUBLE_EQ(t->value, 238.0);  // nearest rank ceil(0.95 * 250)
  EXPECT_EQ(t->beyond, 12u);
}

TEST(DeadlineStats, DroppedDeadlinedJobsCountAsMisses) {
  std::vector<workload::JobSpec> submitted(6);
  for (int i = 0; i < 4; ++i) submitted[i].deadline = 100.0;  // 4 deadlined
  exp::RunMetrics m;
  m.jobs.resize(4);
  m.jobs[0].deadline = 100.0;  // ran, met
  m.jobs[1].deadline = 100.0;  // ran, late
  m.jobs[1].missed_deadline = true;
  // jobs 2 and 3 carry no deadline; the other two deadlined jobs never ran
  const DeadlineStats s = deadline_stats(submitted, m);
  EXPECT_EQ(s.deadlined, 4u);
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.missed, 3u);
  EXPECT_DOUBLE_EQ(s.miss_frac(), 0.75);
}

TEST(DeadlineStats, NoDeadlinesMeansNoMisses) {
  const DeadlineStats s =
      deadline_stats(std::vector<workload::JobSpec>(3), exp::RunMetrics{});
  EXPECT_EQ(s.deadlined, 0u);
  EXPECT_DOUBLE_EQ(s.miss_frac(), 0.0);
}

/// A small run that reaches every event class: E-Ant (control ticks) over
/// the oversubscribed fabric (flows), audited (forwarded observer calls),
/// with arrivals spread over time.
Workload small_workload() {
  Workload w;
  w.fleet = exp::paper_fleet();
  w.scheduler = exp::SchedulerKind::kEAnt;
  w.config = bench::run_config(5);
  w.config.topology = net::TopologySpec::oversubscribed();
  w.config.audit.enabled = true;
  w.generate = [] {
    std::vector<workload::JobSpec> jobs;
    for (int i = 0; i < 24; ++i) {
      workload::JobSpec spec = exp::single_job(
          i % 2 == 0 ? workload::AppKind::kWordcount
                     : workload::AppKind::kTerasort,
          256.0 + 64.0 * (i % 5), 2);
      spec.submit_time = 15.0 * i;
      jobs.push_back(spec);
    }
    return jobs;
  };
  return w;
}

TEST(TracedRun, ClassesAndQueueTimeCoverTheLoop) {
  const TracedRun r = run_traced(small_workload());
  ASSERT_TRUE(r.failures.empty()) << r.failures.front();
  const TraceReport& t = r.trace;

  std::uint64_t classified = 0;
  for (const Cost& c : t.classes) classified += c.events;
  EXPECT_EQ(classified, t.events);
  for (std::size_t i = 0; i < kEventClasses; ++i) {
    EXPECT_GT(t.classes[i].events, 0u)
        << event_class_name(static_cast<EventClass>(i));
  }
  EXPECT_EQ(t.classes[static_cast<std::size_t>(EventClass::kArrival)].events,
            r.outcome.submitted);
  EXPECT_GT(t.select.seconds, 0.0);
  EXPECT_GT(t.audit.seconds, 0.0);
  EXPECT_GT(t.queue.seconds, 0.0);

  // What the slices leave over is only the loop's own bookkeeping.
  EXPECT_GE(t.unattributed_s(), 0.0);
  EXPECT_LT(t.unattributed_s(), 0.25 * t.loop.seconds);

  EXPECT_EQ(t.events, r.outcome.events);
  EXPECT_GT(t.reallocs, 0u);
  EXPECT_GE(t.rerated, t.reallocs);
  EXPECT_GT(t.cancelled, 0u);
  EXPECT_EQ(t.control_ticks,
            t.classes[static_cast<std::size_t>(EventClass::kControl)].events);
}

TEST(TracedRun, ReproducesTheTimedRunExactly) {
  const TimedRun timed = run_timed(small_workload());
  const TracedRun traced = run_traced(small_workload());
  ASSERT_TRUE(timed.failures.empty()) << timed.failures.front();
  ASSERT_TRUE(traced.failures.empty()) << traced.failures.front();
  EXPECT_NE(timed.outcome.audit_digest, 0u);
  EXPECT_EQ(outcome_json(timed.outcome), outcome_json(traced.outcome));
}

TEST(CorrectnessGate, FlagsJobsThatVanished) {
  const Workload w = small_workload();
  const std::vector<workload::JobSpec> jobs = w.generate();
  exp::Run run(w.fleet, w.scheduler, w.config);
  run.submit(jobs);
  run.execute();
  const exp::RunMetrics m = run.metrics();
  Outcome o = summarize(jobs, m, run);
  EXPECT_TRUE(check_run(o, m, run).empty());
  ++o.submitted;  // one job unaccounted for
  EXPECT_FALSE(check_run(o, m, run).empty());
}

TEST(Workloads, SameSeedSameJobs) {
  for (const std::string& name : workload_names()) {
    const auto a = make_workload(name, 3).generate();
    const auto b = make_workload(name, 3).generate();
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].submit_time, b[i].submit_time) << name;
      EXPECT_EQ(a[i].input_mb, b[i].input_mb) << name;
    }
  }
  EXPECT_THROW(make_workload("no-such-workload", 1), PreconditionError);
}

}  // namespace
}  // namespace eant::perfbench
