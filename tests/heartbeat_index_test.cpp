// Randomised differential tests of the heartbeat path's indexes against
// brute-force references: the pheromone table's cached row sums and maxima,
// JobState's start-ordered straggler index and its locality counts, the
// straggler walk shared by the JobTracker and LATE, the JobTracker's kept
// pending totals, runnable lists and free-slot index, and the vector-backed
// FIFO behind JobState's queues.  Each reference is the plain scan the index
// replaced, so any divergence — one bit of a cached double, one tie resolved
// differently, one missed count update — fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/pheromone.h"
#include "exp/builders.h"
#include "exp/chaos.h"
#include "exp/runner.h"
#include "hdfs/namenode.h"
#include "mapreduce/index_fifo.h"
#include "mapreduce/job.h"
#include "mapreduce/job_tracker.h"
#include "net/topology.h"
#include "sched/capacity.h"
#include "sim/simulator.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"

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

// --- JobState: locality counts against the lazy-queue scan -----------------------

/// The map side of JobState before the locality counts, kept as the
/// reference: lazy per-machine and per-rack queues, the claim order over
/// them, and the scans has_local_pending_map and has_rack_local_pending_map
/// used to run.
class LazyLocality {
 public:
  LazyLocality(const std::vector<hdfs::BlockId>& blocks,
               const hdfs::NameNode& nn, std::size_t machines)
      : status_(blocks.size(), TaskStatus::kPending), local_(machines) {
    if (nn.num_racks() > 1) {
      for (cluster::MachineId m = 0; m < machines; ++m)
        rack_of_.push_back(nn.rack_of(m));
      racks_.resize(nn.num_racks());
    }
    for (TaskIndex i = 0; i < blocks.size(); ++i) {
      pending_.push_back(i);
      for (cluster::MachineId m : nn.locations(blocks[i])) local_[m].push_back(i);
    }
    for (TaskIndex i = 0; i < blocks.size() && !racks_.empty(); ++i) {
      for (cluster::MachineId m : nn.locations(blocks[i]))
        racks_[rack_of_[m]].push_back(i);
    }
  }

  bool has_local(cluster::MachineId m) const { return any_pending(local_[m]); }
  bool has_rack_local(cluster::MachineId m) const {
    return !racks_.empty() && any_pending(racks_[rack_of_[m]]);
  }

  std::optional<TaskIndex> claim(cluster::MachineId m, Locality& level) {
    if (auto i = pop(local_[m])) {
      level = Locality::kNodeLocal;
      return i;
    }
    if (!racks_.empty()) {
      if (auto i = pop(racks_[rack_of_[m]])) {
        level = Locality::kRackLocal;
        return i;
      }
    }
    if (auto i = pop(pending_)) {
      level = Locality::kOffRack;
      return i;
    }
    return std::nullopt;
  }

  void unclaim(TaskIndex i) {
    status_[i] = TaskStatus::kPending;
    pending_.push_back(i);
  }
  void done(TaskIndex i) { status_[i] = TaskStatus::kDone; }
  void revert(TaskIndex i, const std::vector<cluster::MachineId>& replicas) {
    status_[i] = TaskStatus::kPending;
    pending_.push_back(i);
    for (cluster::MachineId m : replicas) {
      local_[m].push_back(i);
      if (!racks_.empty()) racks_[rack_of_[m]].push_back(i);
    }
  }

 private:
  bool any_pending(const std::deque<TaskIndex>& q) const {
    for (TaskIndex i : q) {
      if (status_[i] == TaskStatus::kPending) return true;
    }
    return false;
  }
  std::optional<TaskIndex> pop(std::deque<TaskIndex>& q) {
    while (!q.empty()) {
      const TaskIndex i = q.front();
      q.pop_front();
      if (status_[i] == TaskStatus::kPending) {
        status_[i] = TaskStatus::kRunning;
        return i;
      }
    }
    return std::nullopt;
  }

  std::vector<TaskStatus> status_;
  std::deque<TaskIndex> pending_;
  std::vector<std::deque<TaskIndex>> local_;
  std::vector<std::deque<TaskIndex>> racks_;
  std::vector<std::size_t> rack_of_;
};

TEST(LocalityCounts, RandomOperationsMatchTheLazyScan) {
  constexpr std::size_t kMachines = 12;
  std::size_t checks = 0;
  std::size_t claims[3] = {0, 0, 0};  // by Locality
  std::size_t popped_unclaims = 0;    // unclaims of node/rack-popped maps
  std::size_t moved_reverts = 0;      // reverts onto a new replica set
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    // Three racks of four on even seeds, one flat rack on odd ones.
    std::vector<std::size_t> racks;
    if (seed % 2 == 0) {
      for (std::size_t m = 0; m < kMachines; ++m) racks.push_back(m / 4);
    }
    hdfs::NameNode nn(Rng(seed + 100), kMachines, 3, racks);
    workload::JobSpec spec;
    spec.app = workload::AppKind::kTerasort;
    spec.input_mb = 64.0 * 40;
    spec.num_reduces = 2;
    mr::JobState js(0, spec, kMachines);
    const auto blocks = nn.create_file(spec.input_mb);
    js.init_maps(blocks, nn);
    LazyLocality ref(blocks, nn, kMachines);
    std::vector<Locality> claimed_at(blocks.size(), Locality::kOffRack);

    Seconds now = 0.0;
    for (int step = 0; step < 800; ++step) {
      now += 1.0;
      const auto running = with_status(js, TaskKind::kMap, TaskStatus::kRunning);
      const auto done = with_status(js, TaskKind::kMap, TaskStatus::kDone);
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op <= 3) {
        // Claim through whichever path the machine's queues allow.
        const cluster::MachineId m = pick(rng, kMachines);
        Locality level = Locality::kOffRack;
        Locality ref_level = Locality::kOffRack;
        const auto i = js.claim_map(m, level);
        const auto ref_i = ref.claim(m, ref_level);
        ASSERT_EQ(i, ref_i) << "seed " << seed << ", step " << step;
        if (i) {
          ASSERT_EQ(level, ref_level) << "seed " << seed << ", step " << step;
          ++claims[static_cast<int>(level)];
          claimed_at[*i] = level;
          js.mark_started(TaskKind::kMap, *i, m, now);
        }
      } else if (op <= 5 && !running.empty()) {
        // The popped entry stays gone; other machines' entries come back.
        const TaskIndex i = running[pick(rng, running.size())];
        if (claimed_at[i] != Locality::kOffRack) ++popped_unclaims;
        js.unclaim(TaskKind::kMap, i);
        ref.unclaim(i);
      } else if (op == 6 && !running.empty()) {
        // Speculation leaves the map Running: no count may move.
        const TaskIndex i = running[pick(rng, running.size())];
        if (!js.is_speculative(TaskKind::kMap, i)) {
          js.mark_speculative(TaskKind::kMap, i);
          js.mark_started(TaskKind::kMap, i, pick(rng, kMachines), now);
        }
      } else if (op == 7 && !running.empty()) {
        const TaskIndex i = running[pick(rng, running.size())];
        mr::TaskReport r;
        r.spec = js.task(TaskKind::kMap, i);
        r.machine = pick(rng, kMachines);
        r.start = js.task_start_time(TaskKind::kMap, i);
        r.finish = now;
        js.mark_done(r);
        ref.done(i);
      } else if (op >= 8 && !done.empty()) {
        // Re-execution after a lost output, usually onto a replica set the
        // block never had (re-replication moved it).
        const TaskIndex i = done[pick(rng, done.size())];
        std::vector<cluster::MachineId> replicas =
            nn.locations(js.task(TaskKind::kMap, i).block);
        if (rng.uniform() < 0.7) {
          replicas.clear();
          const std::size_t n = 1 + pick(rng, 3);
          while (replicas.size() < n) {
            const cluster::MachineId m = pick(rng, kMachines);
            if (std::find(replicas.begin(), replicas.end(), m) ==
                replicas.end()) {
              replicas.push_back(m);
            }
          }
          ++moved_reverts;
        }
        const auto& hist = js.completed_per_machine(TaskKind::kMap);
        cluster::MachineId m = 0;
        while (hist[m] == 0) ++m;
        js.revert_done_map(i, 1.0, replicas, m);
        ref.revert(i, replicas);
      }
      for (cluster::MachineId m = 0; m < kMachines; ++m) {
        ASSERT_EQ(js.has_local_pending_map(m), ref.has_local(m))
            << "seed " << seed << ", step " << step << ", op " << op
            << ", machine " << m;
        ASSERT_EQ(js.has_rack_local_pending_map(m), ref.has_rack_local(m))
            << "seed " << seed << ", step " << step << ", op " << op
            << ", machine " << m;
        ++checks;
      }
    }
  }
  std::printf("locality counts: %zu machine checks; claims node %zu, rack %zu, "
              "off-rack %zu; %zu unclaims of popped maps, %zu moved reverts\n",
              checks, claims[static_cast<int>(Locality::kNodeLocal)],
              claims[static_cast<int>(Locality::kRackLocal)],
              claims[static_cast<int>(Locality::kOffRack)], popped_unclaims,
              moved_reverts);
  // Every path the counts must follow was taken, many times.
  EXPECT_GT(claims[static_cast<int>(Locality::kNodeLocal)], 500u);
  EXPECT_GT(claims[static_cast<int>(Locality::kRackLocal)], 100u);
  EXPECT_GT(claims[static_cast<int>(Locality::kOffRack)], 100u);
  EXPECT_GT(popped_unclaims, 500u);
  EXPECT_GT(moved_reverts, 200u);
}

TEST(LocalityCounts, ReleasedJobRejectsLocalityQueries) {
  hdfs::NameNode nn(Rng(5), 8, 3, {0, 0, 0, 0, 1, 1, 1, 1});
  workload::JobSpec spec;
  spec.app = workload::AppKind::kWordcount;
  spec.input_mb = 64.0 * 6;
  spec.num_reduces = 1;
  mr::JobState js(0, spec, 8);
  js.init_maps(nn.create_file(spec.input_mb), nn);
  Locality level = Locality::kOffRack;
  const auto i = js.claim_map(0, level);
  ASSERT_TRUE(i.has_value());
  js.release_locality();
  EXPECT_THROW(js.has_local_pending_map(0), PreconditionError);
  EXPECT_THROW(js.has_rack_local_pending_map(0), PreconditionError);
  EXPECT_THROW(js.claim_map(0, level), PreconditionError);
  EXPECT_THROW(js.unclaim(TaskKind::kMap, *i), PreconditionError);
}

TEST(LocalityCounts, RetireJobReleasesLocalityState) {
  exp::RunConfig cfg;
  cfg.seed = 3;
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 1000.0, 2, 2));
  run.execute();
  const mr::JobTracker& jt = run.job_tracker();
  ASSERT_EQ(jt.num_jobs(), 2u);
  EXPECT_TRUE(jt.active_jobs().empty());
  for (JobId id = 0; id < jt.num_jobs(); ++id) {
    EXPECT_THROW(jt.job(id).has_local_pending_map(0), PreconditionError);
    EXPECT_THROW(jt.job(id).has_rack_local_pending_map(0), PreconditionError);
  }
}

// --- the straggler walk shared by the JobTracker and LATE ----------------------

/// The scan find_straggler replaced: every task of every active job, in
/// index order, replacing the best only on a strictly higher score.
std::optional<mr::JobTracker::Straggler> linear_scan(
    exp::Run& run, TaskKind kind,
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
      if (elapsed <= mr::kStragglerBeta * mean) continue;
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

// --- JobTracker: kept totals, runnable lists and the free-slot index ---------------

/// Checks the JobTracker's kept counts, and find_straggler (with its
/// straggler horizon) against the linear scan, at every executed event (the
/// simulator calls it between events, so it sees the state each event
/// left), and records which tracker states the run reached.  Forwards every
/// callback to the observer it displaced (the auditor), so audited runs
/// keep their audit.
class CountOracle final : public sim::SimObserver {
 public:
  explicit CountOracle(exp::Run& run)
      : run_(run), next_(run.auditor()) {
    run.simulator().set_observer(this);
  }

  void on_event_scheduled(Seconds t, sim::EventId id) override {
    if (next_ != nullptr) next_->on_event_scheduled(t, id);
  }
  void on_event_executed(Seconds t, sim::EventId id) override {
    check();
    if (next_ != nullptr) next_->on_event_executed(t, id);
  }

  void check() {
    mr::JobTracker& jt = run_.job_tracker();
    const std::size_t n = jt.cluster().size();
    for (TaskKind kind : kKinds) {
      std::size_t pending = 0;
      std::vector<JobId> runnable;
      for (JobId id : jt.active_jobs()) {
        pending += jt.job(id).pending(kind);
        if (jt.job(id).has_pending(kind)) runnable.push_back(id);
      }
      int free = 0;
      std::vector<cluster::MachineId> machines;
      for (cluster::MachineId m = 0; m < n; ++m) {
        if (!jt.tracker_available(m)) continue;
        const int f = jt.tracker(m).free_slots(kind);
        free += f;
        if (f > 0) machines.push_back(m);
      }
      jt.runnable_jobs(kind, buffer_);
      std::vector<cluster::MachineId> kept = jt.free_machines(kind);
      std::sort(kept.begin(), kept.end());
      const bool ok = jt.total_pending(kind) == pending &&
                      buffer_ == runnable && jt.total_free_slots(kind) == free &&
                      kept == machines;
      if (!ok && failures_++ < 3) {
        ADD_FAILURE() << "kept counts diverged at t=" << run_.simulator().now()
                      << " (" << mr::kind_name(kind) << "): pending "
                      << jt.total_pending(kind) << " vs " << pending
                      << ", runnable " << buffer_.size() << " vs "
                      << runnable.size() << ", free slots "
                      << jt.total_free_slots(kind) << " vs " << free
                      << ", free machines " << kept.size() << " vs "
                      << machines.size();
      }
      // Every straggler scores, so a horizon that skips one shows here.
      const mr::JobTracker::StragglerScore by_elapsed =
          [](const mr::JobState&, TaskKind, TaskIndex, Seconds elapsed,
             Seconds) -> std::optional<Seconds> { return elapsed; };
      const auto fast = jt.find_straggler(kind, by_elapsed);
      const auto slow = linear_scan(run_, kind, by_elapsed);
      if (slow) ++stragglers_;
      const bool same = fast.has_value() == slow.has_value() &&
                        (!fast || (fast->job == slow->job &&
                                   fast->index == slow->index));
      if (!same && failures_++ < 3) {
        ADD_FAILURE() << "find_straggler diverged at t="
                      << run_.simulator().now() << " ("
                      << mr::kind_name(kind) << "): found "
                      << fast.has_value() << ", scan " << slow.has_value();
      }
    }
    for (cluster::MachineId m = 0; m < n; ++m) {
      down_ |= !jt.tracker(m).alive();
      lost_ |= jt.tracker_lost(m);
      blacklisted_ |= jt.tracker_blacklisted(m);
      quarantined_ |= jt.tracker_quarantined(m);
    }
    master_down_ |= !jt.master_up();
    ++checks_;
  }

  std::size_t checks() const { return checks_; }
  std::size_t stragglers() const { return stragglers_; }
  bool saw_down() const { return down_; }
  bool saw_lost() const { return lost_; }
  bool saw_blacklisted() const { return blacklisted_; }
  bool saw_quarantined() const { return quarantined_; }
  bool saw_master_down() const { return master_down_; }

 private:
  exp::Run& run_;
  sim::SimObserver* next_;
  std::vector<JobId> buffer_;
  std::size_t checks_ = 0;
  std::size_t stragglers_ = 0;
  std::size_t failures_ = 0;
  bool down_ = false;
  bool lost_ = false;
  bool blacklisted_ = false;
  bool quarantined_ = false;
  bool master_down_ = false;
};

TEST(KeptCounts, MatchFreshScansThroughFaultedRuns) {
  // The golden cells' configurations: the chaos campaign's quick base (E-Ant
  // on the oversubscribed fabric, 30 s expiry) under node crashes with a
  // fast restart, a JobTracker failover, fail-slow quarantine with
  // corruption, and a gray failure beside a crash; the amnesiac failover
  // with attempt failures and two node losses; LATE under fail-slow;
  // overloaded tenant Capacity with admission and preemption; and,
  // beyond the golden cells, a crash that reverts map outputs while their
  // job's maps still run, frequent attempt failures that blacklist
  // trackers, and a run whose jobs all fail with tasks still pending.
  exp::RunConfig base;
  base.seed = 42;
  base.noise = mr::NoiseConfig::typical();
  base.eant.control_interval = 120.0;
  base.eant.negative_feedback = false;
  base.topology = net::TopologySpec::oversubscribed();
  base.job_tracker.tracker_expiry_window = 30.0;
  base.audit.enabled = true;
  const auto batch = exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 3);

  bool down = false, lost = false, blacklisted = false, quarantined = false,
       master_down = false;
  std::size_t checks = 0;
  std::size_t stragglers = 0;
  std::size_t machines = 0;
  const auto drive = [&](const std::string& name, const exp::ClusterBuilder& fleet,
                         exp::SchedulerKind kind, const exp::RunConfig& cfg,
                         const std::vector<workload::JobSpec>& jobs) {
    exp::Run run(fleet, kind, cfg);
    machines = run.job_tracker().cluster().size();
    CountOracle oracle(run);
    run.submit(jobs);
    run.execute();
    oracle.check();
    EXPECT_FALSE(HasFailure()) << name;
    const exp::RunMetrics m = run.metrics();
    EXPECT_TRUE(m.audit.clean()) << name << ": " << m.audit.summary();
    checks += oracle.checks();
    stragglers += oracle.stragglers();
    down |= oracle.saw_down();
    lost |= oracle.saw_lost();
    blacklisted |= oracle.saw_blacklisted();
    quarantined |= oracle.saw_quarantined();
    master_down |= oracle.saw_master_down();
    return m.makespan;
  };

  const Seconds horizon = drive("fault-free", exp::paper_fleet(),
                                exp::SchedulerKind::kEAnt, base, batch);
  const std::size_t racks = net::TopologySpec::oversubscribed().racks;
  for (const exp::ChaosMix& mix : exp::default_chaos_mixes()) {
    if (mix.name != "machine-crashes" && mix.name != "jobtracker-crash" &&
        mix.name != "corrupt-and-limp" && mix.name != "gray-and-stop") {
      continue;
    }
    exp::RunConfig cfg = base;
    cfg.seed = 1;  // as the golden cells' campaign row
    mix.apply(cfg, machines, racks, horizon, 1);
    drive(mix.name, exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg, batch);
    if (mix.name == "jobtracker-crash") {
      // The full campaign's re-registration window (0.01 of a ~5000 s
      // horizon) outlasts the 30 s expiry: trackers still fenced at the
      // gate are declared lost while alive.
      cfg.job_tracker.reregistration_window = 50.0;
      drive("jobtracker-crash, long gate", exp::paper_fleet(),
            exp::SchedulerKind::kEAnt, cfg, batch);
    }
  }
  {
    exp::RunConfig cfg = base;
    cfg.seed = 3;
    cfg.faults.crash_jobtracker_for(0.25 * horizon, 0.35 * horizon);
    cfg.faults.task_failure_prob = 0.05;
    cfg.faults.crash_for(0, 0.58 * horizon, 0.45 * horizon);
    cfg.faults.crash_for(13, 0.72 * horizon, 0.30 * horizon);
    drive("failover-and-loss", exp::paper_fleet(), exp::SchedulerKind::kEAnt,
          cfg, batch);
  }
  {
    exp::RunConfig cfg;
    cfg.seed = 42;
    cfg.noise = mr::NoiseConfig::typical();
    cfg.audit.enabled = true;
    cfg.job_tracker.speculative_progress_ranking = true;
    cfg.job_tracker.max_speculative_per_node = 2;
    for (cluster::MachineId v : {1, 5}) {
      cfg.faults.slow_for(v, 0.2 * horizon, 50.0 * horizon, 0.3, 0.5);
    }
    drive("late/fail-slow", exp::paper_fleet(), exp::SchedulerKind::kLate,
          cfg, batch);
  }
  {
    // Tenant Capacity past the fleet's knee: admission reads the pending
    // totals, and the share sweep preempts and requeues attempts.
    auto mix = tenancy::presets::three_tenant_mix(3600.0, 50.0);
    exp::RunConfig cfg;
    cfg.seed = 7;
    cfg.audit.enabled = true;
    sched::TenantShareConfig shares;
    cfg.job_tracker.admission.enabled = true;
    for (const auto& t : mix.tenants) {
      shares.tenants.push_back(sched::TenantQueue{
          t.profile.tenant, t.profile.name, t.profile.weight});
      cfg.job_tracker.admission.tenants.push_back(
          mr::AdmissionTenantPolicy{t.profile.tenant, t.profile.weight});
    }
    cfg.tenancy = shares;
    const tenancy::TrafficGenerator gen(std::move(mix));
    Rng rng(7);
    drive("tenant/capacity-admission", exp::paper_fleet(),
          exp::SchedulerKind::kCapacity, cfg, gen.generate(rng));
  }
  {
    // Three crashes while maps still run, one a fast restart: map outputs
    // are reverted while their job has maps running and no straggler
    // anywhere, so a job's mean completed duration drops below the kept
    // straggler horizon.
    exp::RunConfig cfg;
    cfg.seed = 56;
    cfg.noise = mr::NoiseConfig::typical();
    cfg.audit.enabled = true;
    cfg.job_tracker.tracker_expiry_window = 30.0;
    cfg.faults.crash_for(15, 90.3, 100.0);
    cfg.faults.crash_for(9, 186.4, 400.0);
    cfg.faults.crash_for(11, 192.3, 20.0);
    drive("map-phase-crashes", exp::paper_fleet(), exp::SchedulerKind::kEAnt,
          cfg, exp::job_batch(workload::AppKind::kTerasort, 13343.0, 4, 2));
  }
  {
    // Frequent attempt failures: trackers reach the blacklist threshold.
    exp::RunConfig cfg = base;
    cfg.faults.task_failure_prob = 0.15;
    drive("attempt-failures", exp::paper_fleet(), exp::SchedulerKind::kEAnt,
          cfg, batch);
  }
  {
    exp::RunConfig cfg;
    cfg.seed = 5;
    cfg.audit.enabled = true;
    cfg.job_tracker.blacklist_threshold = 0;
    cfg.faults.task_failure_prob = 0.999;
    // More maps than the fleet has map slots: the jobs fail with maps
    // still pending.
    drive("all-jobs-fail", exp::paper_fleet(), exp::SchedulerKind::kFifo, cfg,
          exp::job_batch(workload::AppKind::kWordcount, 64.0 * 200, 1, 2));
  }
  std::printf("kept counts: %zu event checks, %zu with a straggler\n", checks,
              stragglers);
  // The runs reached every state the index must follow.
  EXPECT_TRUE(down);
  EXPECT_TRUE(lost);
  EXPECT_TRUE(blacklisted);
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(master_down);
}

// --- the straggler walk shared by the JobTracker and LATE ----------------------

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
          for (const auto& rule : rules) {
            const auto fast = jt.find_straggler(kind, rule);
            const auto slow = linear_scan(run, kind, rule);
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
  std::printf("straggler walk: %zu comparisons, %zu found a straggler\n",
              compared, found);
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
