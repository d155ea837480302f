// MicroSoft-Derived (MSD) synthetic workload generator.
//
// Models the production workload of Sec. V-C / Table III: a mix of Small
// (40%), Medium (20%) and Large (10%) jobs (proportions renormalised after
// the paper's own trimming of the tail classes) running Wordcount, Terasort
// and Grep with varying input sizes.  The paper scales the month-long
// 174,000-job trace down to 87 jobs for its 16-node cluster; we additionally
// scale input sizes by `input_scale` so that simulated experiments finish in
// seconds of wall time while keeping task-count ratios between classes.

#pragma once

#include <vector>

#include "common/rng.h"
#include "workload/job_spec.h"

namespace eant::workload {

/// One job class of Table III: its share of the job mix, its input-size
/// range in MB (before scaling) and its reduce-count range.
struct MsdClass {
  double share;
  Megabytes min_mb, max_mb;
  int min_reduces, max_reduces;
};

/// Table III, indexed by SizeClass: Small 1-100 GB, Medium 0.1-1 TB and
/// Large 1-10 TB jobs with 4-128, 128-256 and 256-1024 reduces, in the
/// shares 40/20/10 renormalised to sum to 1.
inline constexpr MsdClass kMsdClasses[] = {
    {4.0 / 7.0, 1.0 * 1024, 100.0 * 1024, 4, 128},
    {2.0 / 7.0, 100.0 * 1024, 1024.0 * 1024, 128, 256},
    {1.0 / 7.0, 1024.0 * 1024, 10.0 * 1024 * 1024, 256, 1024},
};

/// The Table III row of a size class.
constexpr const MsdClass& msd_class(SizeClass c) {
  return kMsdClasses[static_cast<std::size_t>(c)];
}

/// Configuration of the MSD workload generator (defaults follow the paper).
struct MsdConfig {
  int num_jobs = 87;  ///< the paper's scaled-down job count

  /// Multiplied into sampled input sizes; 1/40 keeps the Table III 10x
  /// class ratios while making an 87-job run simulate in seconds.
  double input_scale = 1.0 / 40.0;

  /// Mean inter-arrival time for the Poisson job-arrival process.
  Seconds mean_interarrival = 120.0;
};

/// Generates a deterministic (given rng) MSD job list sorted by submit time.
class MsdGenerator {
 public:
  explicit MsdGenerator(MsdConfig config) : config_(config) {}

  /// Samples the full workload; jobs carry submit times from a Poisson
  /// arrival process starting at t=0.
  std::vector<JobSpec> generate(Rng& rng) const;

  const MsdConfig& config() const { return config_; }

 private:
  JobSpec sample_job(Rng& rng) const;

  MsdConfig config_;
};

}  // namespace eant::workload
