#include "workloads.h"

#include <utility>

#include "bench_common.h"
#include "cluster/catalog.h"
#include "common/error.h"
#include "net/topology.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"

namespace eant::perfbench {
namespace {

// eant-wide-batch: the paper fleet copied kFleetCopies times, one batch of
// perf_smoke-shaped Terasort jobs, one job per four nodes.
constexpr std::size_t kFleetCopies = 24;  // 384 nodes
constexpr Megabytes kBatchInputMb = 4000.0;
constexpr int kBatchReduces = 8;

// fair-oversub-msd: the first jobs of the canonical 87-job MSD trace.  The
// trace is fixed: drawn from the seed, its job sizes swing the work tenfold.
constexpr std::size_t kMsdPrefixJobs = 30;

// tenant-overload-audited: three_tenant_mix at kTenantRateScale times its
// base rate (~25 jobs/hour) over kTenantHorizon — well past the admission
// knee, so rejections, retries and drops all occur.
constexpr double kTenantRateScale = 100.0;
constexpr Seconds kTenantHorizon = 12.0 * 3600.0;

Workload eant_wide_batch(std::uint64_t seed) {
  Workload w;
  w.fleet = [](cluster::Cluster& c) {
    for (std::size_t i = 0; i < kFleetCopies; ++i) cluster::add_paper_fleet(c);
  };
  w.scheduler = exp::SchedulerKind::kEAnt;
  w.config = bench::run_config(seed);
  w.generate = [] {
    const int nodes = static_cast<int>(kFleetCopies * 16);
    return exp::job_batch(workload::AppKind::kTerasort, kBatchInputMb,
                          kBatchReduces, nodes / 4);
  };
  return w;
}

Workload fair_oversub_msd(std::uint64_t seed) {
  Workload w;
  w.fleet = exp::paper_fleet();
  w.scheduler = exp::SchedulerKind::kFair;
  w.config = bench::run_config(seed);
  w.config.topology = net::TopologySpec::oversubscribed();
  w.generate = [] {
    std::vector<workload::JobSpec> jobs = bench::msd_workload(bench::kSeed);
    jobs.resize(kMsdPrefixJobs);  // the trace is sorted by submit time
    return jobs;
  };
  return w;
}

Workload tenant_overload_audited(std::uint64_t seed) {
  Workload w;
  w.fleet = exp::paper_fleet();
  w.scheduler = exp::SchedulerKind::kCapacity;
  w.config = bench::run_config(seed);
  w.config.audit.enabled = true;
  sched::TenantShareConfig shares;
  for (const auto& t :
       tenancy::presets::three_tenant_mix(kTenantHorizon, kTenantRateScale)
           .tenants) {
    shares.tenants.push_back(
        sched::TenantQueue{t.profile.tenant, t.profile.name, t.profile.weight});
    w.config.job_tracker.admission.tenants.push_back(
        mr::AdmissionTenantPolicy{t.profile.tenant, t.profile.weight});
  }
  w.config.tenancy = std::move(shares);
  w.config.job_tracker.admission.enabled = true;
  w.generate = [seed] {
    const tenancy::TrafficGenerator generator(
        tenancy::presets::three_tenant_mix(kTenantHorizon, kTenantRateScale));
    Rng rng(seed);
    return generator.generate(rng);
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "eant-wide-batch", "fair-oversub-msd", "tenant-overload-audited"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "eant-wide-batch") return eant_wide_batch(seed);
  if (name == "fair-oversub-msd") return fair_oversub_msd(seed);
  if (name == "tenant-overload-audited") return tenant_overload_audited(seed);
  throw PreconditionError("unknown workload '" + name + "'");
}

}  // namespace eant::perfbench
