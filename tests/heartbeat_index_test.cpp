// Randomised differential tests of the heartbeat path's indexes against
// brute-force references: the pheromone table's cached row sums and maxima,
// JobState's start-ordered straggler index, the straggler walk shared by the
// JobTracker and LATE, and the vector-backed FIFO behind JobState's queues.
// Each reference is the plain scan the index replaced, so any divergence —
// one bit of a cached double, one tie resolved differently — fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pheromone.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "hdfs/namenode.h"
#include "mapreduce/index_fifo.h"
#include "mapreduce/job.h"
#include "mapreduce/job_tracker.h"

namespace eant {
namespace {

using mr::JobId;
using mr::TaskIndex;
using mr::TaskKind;
using mr::TaskStatus;

constexpr TaskKind kKinds[] = {TaskKind::kMap, TaskKind::kReduce};

/// Uniform index in [0, n).
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// --- PheromoneTable: cached row sum and max ------------------------------------

/// Checks every live trail's cached sum and max against a fresh machine-order
/// recompute, bit for bit.
void expect_caches_fresh(const core::PheromoneTable& t,
                         const std::set<JobId>& live) {
  for (JobId j : live) {
    for (TaskKind kind : kKinds) {
      const std::vector<double> tau = t.trail(j, kind);
      double sum = 0.0;
      double max = 0.0;
      for (double v : tau) sum += v;
      for (double v : tau) max = std::max(max, v);
      EXPECT_EQ(t.row_sum(j, kind), sum) << "job " << j;
      EXPECT_EQ(t.row_max(j, kind), max) << "job " << j;
      EXPECT_EQ(t.row(j, kind).tau, tau);
    }
  }
}

TEST(PheromoneCache, RandomOperationsKeepSumAndMaxFresh) {
  constexpr std::size_t kMachines = 7;
  const std::string classes[] = {"", "terasort", "wordcount"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    core::PheromoneTable t(kMachines, 0.4, 1.0, 0.05);
    std::set<JobId> live;
    std::set<JobId> classed;  // removed colonies whose deposits reach a prior
    core::PheromoneTable::Snapshot snap = t.snapshot();
    JobId next = 0;
    for (int step = 0; step < 300; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 7));
      if (op == 0 || live.empty()) {
        const std::string& key = classes[pick(rng, std::size(classes))];
        t.add_job(next, key);
        if (!key.empty()) classed.insert(next);
        live.insert(next++);
      } else if (op == 1) {
        const JobId j = *std::next(live.begin(), pick(rng, live.size()));
        t.remove_job(j);
        live.erase(j);
      } else if (op == 2) {
        core::DeltaMap deposits;
        std::vector<JobId> targets(live.begin(), live.end());
        targets.insert(targets.end(), classed.begin(), classed.end());
        for (JobId j : targets) {
          if (rng.uniform() < 0.5) continue;
          auto& row = deposits[{j, kKinds[pick(rng, 2)]}];
          row.assign(kMachines, 0.0);
          for (double& d : row) {
            d = rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.0, 3.0);
          }
        }
        t.apply(deposits);
      } else if (op == 3) {
        const JobId j = *std::next(live.begin(), pick(rng, live.size()));
        t.penalize(j, kKinds[pick(rng, 2)], pick(rng, kMachines),
                   rng.uniform());
      } else if (op == 4) {
        t.evaporate_machine(pick(rng, kMachines));
      } else if (op == 5) {
        t.reseed_machine(pick(rng, kMachines));
      } else if (op == 6) {
        snap = t.snapshot();
      } else {
        t.restore(snap);
        live.clear();
        for (const auto& [key, row] : snap.trails) live.insert(key.first);
      }
      expect_caches_fresh(t, live);
      if (HasFailure()) {
        FAIL() << "seed " << seed << ", step " << step << ", op " << op;
      }
    }
  }
}

// --- JobState: the straggler index ---------------------------------------------

/// The straggler index by definition: (start, index) of every Running task
/// without a speculative twin, in (start, index) order.
std::vector<mr::RunningTask> brute_force_index(const mr::JobState& js,
                                               TaskKind kind) {
  std::vector<mr::RunningTask> out;
  const std::size_t n =
      kind == TaskKind::kMap ? js.num_maps() : js.num_reduces();
  for (TaskIndex i = 0; i < n; ++i) {
    if (js.status(kind, i) != TaskStatus::kRunning) continue;
    if (js.is_speculative(kind, i)) continue;
    out.push_back({js.task_start_time(kind, i), i});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TaskIndex> with_status(const mr::JobState& js, TaskKind kind,
                                   TaskStatus status) {
  std::vector<TaskIndex> out;
  const std::size_t n =
      kind == TaskKind::kMap ? js.num_maps() : js.num_reduces();
  for (TaskIndex i = 0; i < n; ++i) {
    if (js.status(kind, i) == status) out.push_back(i);
  }
  return out;
}

TEST(StragglerIndex, RandomTransitionsMatchBruteForce) {
  constexpr std::size_t kMachines = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    hdfs::NameNode nn(Rng(seed + 100), kMachines, 2);
    workload::JobSpec spec;
    spec.app = workload::AppKind::kWordcount;
    spec.input_mb = 64.0 * 24;
    spec.num_reduces = 6;
    mr::JobState js(0, spec, kMachines);
    js.init_maps(nn.create_file(spec.input_mb), nn);
    std::vector<mr::TaskSpec> reduces(6);
    for (TaskIndex i = 0; i < reduces.size(); ++i) {
      reduces[i].job = 0;
      reduces[i].index = i;
      reduces[i].kind = TaskKind::kReduce;
      reduces[i].input_mb = 10.0;
    }
    js.init_reduces(reduces);

    // Time advances in coarse ticks, so many attempts share a start time.
    Seconds now = 0.0;
    for (int step = 0; step < 600; ++step) {
      if (rng.uniform() < 0.2) now += 3.0;
      const TaskKind kind = kKinds[pick(rng, 2)];
      const auto running = with_status(js, kind, TaskStatus::kRunning);
      const int op = static_cast<int>(rng.uniform_int(0, 7));
      if (op == 0) {
        // Claim and start, as the JobTracker's launch does.
        std::optional<TaskIndex> i;
        const cluster::MachineId m = pick(rng, kMachines);
        if (kind == TaskKind::kMap) {
          Locality level = Locality::kOffRack;
          i = js.claim_map(m, level);
        } else {
          i = js.claim_reduce();
        }
        if (i) js.mark_started(kind, *i, m, now);
      } else if (op == 1 && kind == TaskKind::kMap) {
        // Claim only: the task sits in the index under its old start time.
        Locality level = Locality::kOffRack;
        js.claim_map(pick(rng, kMachines), level);
      } else if (op == 2 && !running.empty()) {
        js.mark_started(kind, running[pick(rng, running.size())],
                        pick(rng, kMachines), now);
      } else if (op == 3 && !running.empty()) {
        // Speculate: the twin's launch keeps the original's start time.
        const TaskIndex i = running[pick(rng, running.size())];
        js.mark_speculative(kind, i);
        js.mark_started(kind, i, pick(rng, kMachines), now);
      } else if (op == 4) {
        const std::size_t n =
            kind == TaskKind::kMap ? js.num_maps() : js.num_reduces();
        js.clear_speculative(kind, pick(rng, n));
      } else if (op == 5 && !running.empty()) {
        js.unclaim(kind, running[pick(rng, running.size())]);
      } else if (op == 6 && !running.empty()) {
        const TaskIndex i = running[pick(rng, running.size())];
        mr::TaskReport r;
        r.spec = js.task(kind, i);
        r.machine = pick(rng, kMachines);
        r.start = js.task_start_time(kind, i);
        r.finish = now + 1.0;
        js.mark_done(r);
      } else if (op == 7) {
        const auto done = with_status(js, TaskKind::kMap, TaskStatus::kDone);
        if (!done.empty()) {
          const TaskIndex i = done[pick(rng, done.size())];
          const auto& hist = js.completed_per_machine(TaskKind::kMap);
          cluster::MachineId m = 0;
          while (hist[m] == 0) ++m;
          js.revert_done_map(i, 1.0,
                             nn.locations(js.task(TaskKind::kMap, i).block),
                             m);
        }
      }
      for (TaskKind k : kKinds) {
        ASSERT_EQ(js.running_by_start(k), brute_force_index(js, k))
            << "seed " << seed << ", step " << step << ", op " << op;
      }
    }
  }
}

// --- the straggler walk shared by the JobTracker and LATE ----------------------

/// The scan find_straggler replaced: every task of every active job, in
/// index order, replacing the best only on a strictly higher score.
std::optional<mr::JobTracker::Straggler> linear_scan(
    exp::Run& run, TaskKind kind, double beta,
    const mr::JobTracker::StragglerScore& score) {
  const mr::JobTracker& jt = run.job_tracker();
  const Seconds now = run.simulator().now();
  std::optional<mr::JobTracker::Straggler> best;
  Seconds best_score = 0.0;
  for (JobId id : jt.active_jobs()) {
    const mr::JobState& js = jt.job(id);
    const Seconds mean = js.mean_completed_duration(kind);
    if (mean <= 0.0) continue;
    const std::size_t total =
        kind == TaskKind::kMap ? js.num_maps() : js.num_reduces();
    for (TaskIndex i = 0; i < total; ++i) {
      if (js.status(kind, i) != TaskStatus::kRunning) continue;
      if (js.is_speculative(kind, i)) continue;
      const Seconds elapsed = now - js.task_start_time(kind, i);
      if (elapsed <= beta * mean) continue;
      const auto s = score(js, kind, i, elapsed, mean);
      if (!s) continue;
      if (*s > best_score) {
        best_score = *s;
        best = mr::JobTracker::Straggler{id, i};
      }
    }
  }
  return best;
}

TEST(StragglerWalk, MatchesLinearScanOnRandomRuns) {
  const auto batch = exp::job_batch(workload::AppKind::kTerasort, 1500.0, 4, 4);
  const exp::SchedulerKind kinds[] = {exp::SchedulerKind::kLate,
                                      exp::SchedulerKind::kEAnt};
  std::size_t compared = 0;
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (exp::SchedulerKind sched : kinds) {
      exp::RunConfig cfg;
      cfg.seed = seed;
      cfg.noise = mr::NoiseConfig::typical();
      cfg.job_tracker.speculative_progress_ranking = seed % 2 == 0;
      cfg.faults.task_failure_prob = 0.03;
      cfg.faults.slow_for(seed % 16, 30.0, 1e6, 0.3, 0.5);
      exp::Run run(exp::paper_fleet(), sched, cfg);
      run.submit(batch);
      const mr::JobTracker& jt = run.job_tracker();

      // Both production score rules, plus rules that make ties the norm.
      const mr::JobTracker::StragglerScore rules[] = {
          // JobTracker: overdue time, skipping tasks a fresh attempt would
          // not beat (here: odd indices).
          [](const mr::JobState&, TaskKind, TaskIndex i, Seconds elapsed,
             Seconds mean) -> std::optional<Seconds> {
            if (i % 2 == 1) return std::nullopt;
            return elapsed - mean;
          },
          // LATE with progress ranking: estimated time left.
          [&jt](const mr::JobState& js, TaskKind k, TaskIndex i,
                Seconds elapsed, Seconds) -> std::optional<Seconds> {
            const double p = jt.running_progress(js.id(), k, i);
            return p > 0.0 ? elapsed * (1.0 - p) / p : elapsed;
          },
          // LATE by elapsed time.
          [](const mr::JobState&, TaskKind, TaskIndex, Seconds elapsed,
             Seconds) -> std::optional<Seconds> { return elapsed; },
          // Every candidate ties: the tie rule alone decides.
          [](const mr::JobState&, TaskKind, TaskIndex, Seconds,
             Seconds) -> std::optional<Seconds> { return 1.0; },
          // Coarse buckets: ties across jobs and starts, some zero scores.
          [](const mr::JobState&, TaskKind, TaskIndex, Seconds elapsed,
             Seconds mean) -> std::optional<Seconds> {
            return std::floor((elapsed - mean) / 20.0);
          },
      };
      while (!jt.all_done()) {
        ASSERT_TRUE(run.simulator().step());
        for (TaskKind kind : kKinds) {
          for (double beta : {1.0, 1.5}) {
            for (const auto& rule : rules) {
              const auto fast = jt.find_straggler(kind, beta, rule);
              const auto slow = linear_scan(run, kind, beta, rule);
              ASSERT_EQ(fast.has_value(), slow.has_value())
                  << "t=" << run.simulator().now();
              ++compared;
              if (!fast) continue;
              ++found;
              ASSERT_EQ(fast->job, slow->job) << "t=" << run.simulator().now();
              ASSERT_EQ(fast->index, slow->index)
                  << "t=" << run.simulator().now();
            }
          }
        }
      }
    }
  }
  // The runs must actually produce stragglers to compare.
  EXPECT_GT(found, compared / 50);
}

// --- IndexFifo against std::deque ----------------------------------------------

TEST(IndexFifo, MatchesDequeUnderRandomPushAndPop) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    mr::IndexFifo fifo;
    std::deque<TaskIndex> ref;
    // Phases of push-heavy and pop-heavy traffic drain the queue often and
    // also let popped slots pile up ahead of live ones.
    for (int step = 0; step < 2000; ++step) {
      const double push_share = (step / 200) % 2 == 0 ? 0.7 : 0.3;
      if (rng.uniform() < push_share) {
        const auto v = static_cast<TaskIndex>(rng.uniform_int(0, 1000));
        fifo.push_back(v);
        ref.push_back(v);
      } else if (!ref.empty()) {
        ASSERT_EQ(fifo.front(), ref.front());
        fifo.pop_front();
        ref.pop_front();
      }
      ASSERT_EQ(fifo.empty(), ref.empty());
      ASSERT_EQ(fifo.size(), ref.size());
      ASSERT_TRUE(std::equal(fifo.begin(), fifo.end(), ref.begin(), ref.end()))
          << "seed " << seed << ", step " << step;
    }
  }
}

}  // namespace
}  // namespace eant
