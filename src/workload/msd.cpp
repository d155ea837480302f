#include "workload/msd.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace eant::workload {
namespace {

/// Multiplied into sampled reduce counts.  Scaled more gently than the
/// input (reduce counts grow sublinearly with input in production
/// configurations), so per-reduce shuffle volumes stay realistic at
/// simulation scale; at least one reduce per job.
constexpr double kReduceScale = 1.0 / 8.0;

}  // namespace

std::string size_class_suffix(SizeClass c) {
  switch (c) {
    case SizeClass::kSmall:
      return "S";
    case SizeClass::kMedium:
      return "M";
    case SizeClass::kLarge:
      return "L";
  }
  throw PreconditionError("unknown SizeClass");
}

JobSpec MsdGenerator::sample_job(Rng& rng) const {
  JobSpec job;

  const std::size_t cls = rng.weighted_index(
      {kMsdClasses[0].share, kMsdClasses[1].share, kMsdClasses[2].share});
  job.size_class = static_cast<SizeClass>(cls);
  const MsdClass& c = msd_class(job.size_class);

  // Sample log-uniformly within the class range, like production job-size
  // distributions (heavier mass towards the small end of each class).
  const double log_size = rng.uniform(std::log(c.min_mb), std::log(c.max_mb));
  job.input_mb =
      std::max(kHdfsBlockMb, std::exp(log_size) * config_.input_scale);

  const double reduces =
      static_cast<double>(rng.uniform_int(c.min_reduces, c.max_reduces)) *
      kReduceScale;
  job.num_reduces = std::max(1, static_cast<int>(std::lround(reduces)));

  const auto& apps = all_apps();
  job.app = apps[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(apps.size()) - 1))];
  return job;
}

std::vector<JobSpec> MsdGenerator::generate(Rng& rng) const {
  EANT_CHECK(config_.num_jobs >= 1, "workload needs at least one job");
  EANT_CHECK(config_.input_scale > 0.0, "input_scale must be positive");
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(config_.num_jobs));
  Seconds t = 0.0;
  for (int i = 0; i < config_.num_jobs; ++i) {
    JobSpec job = sample_job(rng);
    job.submit_time = t;
    t += rng.exponential(1.0 / config_.mean_interarrival);
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace eant::workload
