#include "exp/runner.h"

#include "common/error.h"
#include "common/stats.h"
#include "sched/capacity.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/late.h"
#include "sched/tarazu.h"

namespace eant::exp {

std::string scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return "FIFO";
    case SchedulerKind::kFair:
      return "Fair";
    case SchedulerKind::kCapacity:
      return "Capacity";
    case SchedulerKind::kTarazu:
      return "Tarazu";
    case SchedulerKind::kLate:
      return "LATE";
    case SchedulerKind::kEAnt:
      return "E-Ant";
  }
  throw PreconditionError("unknown SchedulerKind");
}

namespace {

std::unique_ptr<mr::Scheduler> make_scheduler(SchedulerKind kind,
                                              const cluster::Cluster& cluster,
                                              const RunConfig& config) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<sched::FifoScheduler>();
    case SchedulerKind::kFair:
      return std::make_unique<sched::FairScheduler>();
    case SchedulerKind::kCapacity:
      return config.tenancy
                 ? std::make_unique<sched::CapacityScheduler>(*config.tenancy)
                 : std::make_unique<sched::CapacityScheduler>();
    case SchedulerKind::kTarazu:
      return std::make_unique<sched::TarazuScheduler>();
    case SchedulerKind::kLate:
      return std::make_unique<sched::LateScheduler>();
    case SchedulerKind::kEAnt: {
      const Rng seed_rng = Rng(config.seed).fork(0xea);
      return std::make_unique<core::EAntScheduler>(
          core::EnergyModel::from_cluster(cluster), seed_rng, config.eant);
    }
  }
  throw PreconditionError("unknown SchedulerKind");
}

}  // namespace

Run::Run(const ClusterBuilder& build_cluster, SchedulerKind scheduler,
         RunConfig config)
    : config_(config) {
  EANT_CHECK(static_cast<bool>(build_cluster), "cluster builder required");
  sim_ = std::make_unique<sim::Simulator>();
  if (config_.audit.enabled || audit::audit_env_enabled()) {
    auditor_ = std::make_unique<audit::InvariantAuditor>(*sim_, config_.audit);
    sim_->set_observer(auditor_.get());
  }
  cluster_ = std::make_unique<cluster::Cluster>(*sim_);
  build_cluster(*cluster_);
  EANT_CHECK(cluster_->size() >= 1, "cluster builder added no machines");
  if (auditor_) auditor_->attach_cluster(*cluster_);

  const Rng root(config_.seed);
  std::vector<std::size_t> racks;  // empty = one flat rack
  if (config_.topology) {
    net::Topology topo(*config_.topology, cluster_->size());
    racks = topo.rack_assignment();
    fabric_ = std::make_unique<net::Fabric>(*sim_, std::move(topo));
  }
  namenode_ = std::make_unique<hdfs::NameNode>(
      root.fork(1), cluster_->size(), hdfs::kDefaultReplication, racks);
  noise_ = std::make_unique<mr::NoiseModel>(config_.noise, root.fork(2));
  scheduler_ = make_scheduler(scheduler, *cluster_, config_);
  eant_ = dynamic_cast<core::EAntScheduler*>(scheduler_.get());
  if (config_.job_tracker.admission.enabled &&
      config_.job_tracker.admission.retry_seed == 0) {
    // Default the backpressure retry stream to the run seed: deterministic
    // per run, independent of the namenode/noise/injector forks.
    config_.job_tracker.admission.retry_seed = config_.seed;
  }
  jt_ = std::make_unique<mr::JobTracker>(*sim_, *cluster_, *namenode_,
                                         *scheduler_, *noise_,
                                         config_.job_tracker);
  if (fabric_) jt_->attach_fabric(*fabric_);
  if (auditor_) {
    if (fabric_) auditor_->attach_fabric(*fabric_);
    jt_->set_auditor(auditor_.get());
    if (eant_ != nullptr) eant_->set_auditor(auditor_.get());
  }
  jt_->start_trackers();

  if (config_.faults.enabled()) {
    EANT_CHECK(!config_.faults.has_net_faults() || fabric_ != nullptr,
               "network fault injection requires a topology");
    // A dedicated RNG fork: enabling fault injection never perturbs the
    // namenode/noise/scheduler draws of an otherwise-identical run.
    injector_ = std::make_unique<sim::FaultInjector>(
        *sim_, config_.faults, root.fork(3), cluster_->size(),
        fabric_ ? fabric_->topology().num_racks() : 1);
    injector_->set_handlers(
        [this](std::size_t m) { jt_->tracker(m).crash(); },
        [this](std::size_t m) { jt_->tracker(m).restart(); });
    if (config_.faults.has_slow_faults()) {
      // Fail-slow transitions land on the TaskTracker, which re-rates its
      // in-flight attempts and lets the health/quarantine loop observe the
      // limp through heartbeat progress samples.
      injector_->set_slow_handler(
          [this](std::size_t m, double cpu, double io) {
            jt_->tracker(m).set_perf_factors(cpu, io);
          });
    }
    if (config_.faults.has_net_faults()) {
      injector_->set_net_handler([this](sim::NetFaultEvent::Target target,
                                        std::size_t index, double factor) {
        if (target == sim::NetFaultEvent::Target::kNodeLink) {
          fabric_->set_node_link_factor(index, factor);
        } else {
          fabric_->set_trunk_factor(index, factor);
        }
      });
    }
    if (config_.faults.has_master_faults()) {
      injector_->set_master_handler(
          [this](sim::MasterFaultEvent::Target target, bool up) {
            if (target == sim::MasterFaultEvent::Target::kJobTracker) {
              up ? jt_->recover_master() : jt_->crash_master();
            } else {
              up ? jt_->recover_namenode() : jt_->crash_namenode();
            }
          });
    }
    if (config_.faults.has_corruption_faults()) {
      // Silent bit rot: the handler damages a replica without any failure —
      // detection happens (or not) at a checksummed read or a scrub pass.
      injector_->set_corruption_handler(
          [this](std::size_t m, std::int64_t block, double pick) {
            jt_->inject_corruption(m, block, pick);
          });
    }
    injector_->start();
    if (config_.faults.shuffle_corruption_prob > 0.0) {
      jt_->set_shuffle_corruption_hook(
          [this] { return injector_->draw_shuffle_corruption(); });
    }
    if (config_.faults.task_output_corruption_prob > 0.0) {
      jt_->set_task_output_corruption_hook(
          [this] { return injector_->draw_task_output_corruption(); });
    }
    if (config_.faults.task_failure_prob > 0.0) {
      jt_->set_attempt_fault_hook(
          [this](const mr::TaskSpec&, cluster::MachineId) {
            return injector_->draw_attempt_failure();
          });
    }
    if (config_.faults.fetch_failure_prob > 0.0) {
      jt_->set_fetch_fault_hook([this](mr::JobId, cluster::MachineId) {
        return injector_->draw_fetch_failure();
      });
    }
  }

  collector_ = std::make_unique<MetricsCollector>(*cluster_, *jt_);
  collector_->install();
}

Run::~Run() = default;

void Run::submit(const std::vector<workload::JobSpec>& jobs) {
  jt_->submit_all(jobs);
}

void Run::execute() {
  // Heartbeats and control-interval events repeat forever, so the queue
  // never drains; step until the workload completes.
  while (!jt_->all_done()) {
    EANT_CHECK(sim_->now() <= config_.time_limit,
               "run exceeded the safety time limit without completing");
    const bool progressed = sim_->step();
    EANT_ASSERT(progressed, "event queue drained with jobs outstanding");
  }
  // Drain in-flight block recovery so the post-run HDFS state is stable:
  // every block fully replicated, queued (endpoints still down), or recorded
  // lost — never silently mid-copy.
  while (jt_->rereplication_active() > 0) {
    EANT_CHECK(sim_->now() <= config_.time_limit,
               "block recovery exceeded the safety time limit");
    const bool progressed = sim_->step();
    EANT_ASSERT(progressed, "event queue drained with recovery in flight");
  }
}

RunMetrics Run::metrics() {
  // Close the admission and corruption ledgers (conservation checks) before
  // the collector reads them and before the auditor aggregates its report.
  jt_->finalize_admission();
  jt_->finalize_corruption();
  RunMetrics rm = collector_->finalize(scheduler_->name());
  if (fabric_) {
    rm.fabric_active = true;
    rm.network = fabric_->metrics();
  }
  if (injector_) {
    rm.link_faults = injector_->link_faults();
    rm.perf_faults = injector_->slow_faults();
  }
  if (auditor_) {
    rm.audited = true;
    rm.audit = auditor_->finalize();
    rm.determinism_digest = rm.audit.digest;
  }
  return rm;
}

Seconds standalone_runtime(const ClusterBuilder& build_cluster,
                           const workload::JobSpec& job, RunConfig config) {
  Run run(build_cluster, SchedulerKind::kFifo, config);
  workload::JobSpec spec = job;
  spec.submit_time = 0.0;
  run.submit({spec});
  run.execute();
  return run.metrics().jobs.at(0).completion_time;
}

double slowdown_fairness(const RunMetrics& metrics,
                         const std::map<std::string, Seconds>& standalone) {
  EANT_CHECK(!metrics.jobs.empty(), "run has no jobs");
  std::vector<double> slowdowns;
  slowdowns.reserve(metrics.jobs.size());
  for (const auto& j : metrics.jobs) {
    const auto it = standalone.find(j.class_name);
    EANT_CHECK(it != standalone.end(),
               "missing standalone runtime for class " + j.class_name);
    EANT_CHECK(it->second > 0.0, "standalone runtime must be positive");
    slowdowns.push_back(j.completion_time / it->second);
  }
  const double var = variance_of(slowdowns);
  // A perfectly uniform slowdown (variance 0) is clamped to a large finite
  // fairness instead of infinity.
  return 1.0 / std::max(var, 1e-6);
}

}  // namespace eant::exp
