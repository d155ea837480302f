// Task-level types shared across the MapReduce engine, the schedulers and
// E-Ant's task analyzer: specs, utilisation samples and completion reports
// (the simulator's equivalent of Hadoop's TaskReport, which the paper extends
// with per-task energy accounting tagged by AttemptTaskID — Sec. V-A).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "common/locality.h"
#include "common/units.h"
#include "hdfs/namenode.h"

namespace eant::mr {

/// Job identifier assigned by the JobTracker at submission.
using JobId = std::size_t;

/// Index of a task within its job (maps and reduces have separate spaces).
using TaskIndex = std::size_t;

/// Map or reduce.
enum class TaskKind { kMap, kReduce };

/// "map" / "reduce".
std::string kind_name(TaskKind kind);

/// The kind's slot in a per-kind array: map 0, reduce 1.
constexpr std::size_t kind_index(TaskKind kind) {
  return kind == TaskKind::kMap ? 0 : 1;
}

/// Immutable description of one task's work.
struct TaskSpec {
  JobId job = 0;
  TaskIndex index = 0;
  TaskKind kind = TaskKind::kMap;
  Megabytes input_mb = 0.0;       ///< split size (map) or shuffle input (reduce)
  hdfs::BlockId block = 0;        ///< input block; meaningful for maps only
  double cpu_ref_seconds = 0.0;   ///< CPU work in reference-core seconds
  Megabytes io_mb = 0.0;          ///< local disk traffic
  Seconds shuffle_seconds = 0.0;  ///< network shuffle time (reduces only)
  double cpu_demand = 1.0;        ///< cores the task occupies while running
};

/// One utilisation window recorded by a TaskTracker: the task held
/// (approximately) `util` of the whole machine for `duration` seconds.
/// These are the u(T) and delta-t inputs of the paper's Eq. 2.
struct UtilSample {
  Seconds duration = 0.0;
  Utilization util = 0.0;
};

/// Completion report delivered from TaskTracker to JobTracker via the
/// heartbeat connection (and from there to the scheduler and E-Ant).
struct TaskReport {
  TaskSpec spec;
  cluster::MachineId machine = 0;
  Seconds start = 0.0;
  Seconds finish = 0.0;
  bool data_local = false;        ///< map read its split from a local replica
  /// Three-level refinement of data_local (rack-local reads cross only the
  /// rack switch; off-rack reads also cross the core).
  Locality locality = Locality::kOffRack;
  /// Time the attempt spent in its network-transfer phase (shuffle fetch or
  /// remote split read).  Negative = not measured (legacy scalar path);
  /// phase accounting then falls back to spec.shuffle_seconds.
  Seconds transfer_seconds = -1.0;
  std::vector<UtilSample> samples;

  Seconds duration() const { return finish - start; }
};

}  // namespace eant::mr
