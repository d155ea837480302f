#include "timed.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>  // lint-ok: wall-clock
#include <memory>

namespace eant::perfbench {
namespace {

using Clock = std::chrono::steady_clock;  // lint-ok: wall-clock

// Set-ups repeat until they have taken kSetupBudgetS of host time, at least
// kSetupMinRepeats and at most kSetupMaxRepeats times: one set-up lasts
// from about 10 us to a few ms, too short to time once.
constexpr double kSetupBudgetS = 0.1;
constexpr std::size_t kSetupMinRepeats = 5;
constexpr std::size_t kSetupMaxRepeats = 2000;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

TimedRun run_timed(const Workload& w) {
  const std::vector<workload::JobSpec> jobs = w.generate();
  std::vector<double> setups;
  double spent = 0.0;
  std::unique_ptr<exp::Run> run;
  while (setups.size() < kSetupMinRepeats ||
         (spent < kSetupBudgetS && setups.size() < kSetupMaxRepeats)) {
    run.reset();
    const auto t0 = Clock::now();
    run = std::make_unique<exp::Run>(w.fleet, w.scheduler, w.config);
    run->submit(jobs);
    setups.push_back(since(t0));
    spent += setups.back();
  }
  const auto mid =
      setups.begin() + static_cast<std::ptrdiff_t>(setups.size() / 2);
  std::nth_element(setups.begin(), mid, setups.end());

  TimedRun r;
  r.setup_s = *mid;
  r.setups = static_cast<int>(setups.size());
  const auto t0 = Clock::now();
  run->execute();
  const exp::RunMetrics metrics = run->metrics();
  r.wall_s = since(t0);
  r.outcome = summarize(jobs, metrics, *run);
  r.failures = check_run(r.outcome, metrics, *run);
  return r;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace eant::perfbench
