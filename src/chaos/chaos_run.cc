#include "chaos/chaos_run.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/execution_backend.h"
#include "exp/run_spec.h"
#include "report/experiment_report.h"
#include "runtime/scenario.h"
#include "runtime/streaming_job.h"
#include "service/cluster_service.h"
#include "topology/serialize.h"

namespace ppa {
namespace chaos {
namespace {

/// The system a case drives. A single-job case fills `job` and
/// `scenario`; a service case fills `service` and `service_outcomes`.
struct SystemUnderTest {
  std::unique_ptr<StreamingJob> job;
  std::unique_ptr<ScenarioRunner> scenario;
  std::unique_ptr<service::ClusterService> service;
  std::vector<Status> service_outcomes;

  /// Per-event statuses in execution order.
  const std::vector<Status>& outcomes() const {
    return scenario != nullptr ? scenario->outcomes() : service_outcomes;
  }
  bool AllRecovered() const {
    return service != nullptr ? service->AllRecovered()
                              : job->AllRecovered();
  }
};

/// One job the per-job oracles judge.
struct JobUnderTest {
  StreamingJob* job = nullptr;
  /// "tenant <id>: " for a service tenant; empty for a single job.
  std::string label;
  int64_t replica_budget = 0;
  TimePoint admitted_at;
};

template <typename Target>
Status AssignDomains(const ChaosCase& chaos_case, Target* target) {
  if (chaos_case.node_domains.empty()) {
    return OkStatus();
  }
  const int num_nodes =
      chaos_case.num_worker_nodes + chaos_case.num_standby_nodes;
  if (static_cast<int>(chaos_case.node_domains.size()) != num_nodes) {
    return InvalidArgument("node_domains size does not match the cluster");
  }
  for (int node = 0; node < num_nodes; ++node) {
    PPA_RETURN_IF_ERROR(target->AssignDomain(
        node, chaos_case.node_domains[static_cast<size_t>(node)]));
  }
  return OkStatus();
}

/// Builds and starts the single job of `chaos_case` with its initial
/// plan active, and schedules the timeline through a ScenarioRunner.
Status BuildJob(const ChaosCase& chaos_case, const JobConfig& config,
                backend::ExecutionBackend* be, SystemUnderTest* sut) {
  PPA_ASSIGN_OR_RETURN(Topology topology,
                       ParseTopologySpec(chaos_case.topology_spec));
  sut->job =
      std::make_unique<StreamingJob>(topology, config, JobRuntimeDeps(be));
  StreamingJob* job = sut->job.get();
  PPA_RETURN_IF_ERROR(exp::BindGenericWorkload(topology, config, job));
  PPA_RETURN_IF_ERROR(AssignDomains(chaos_case, &job->cluster()));
  TaskSet plan(topology.num_tasks());
  for (TaskId t : chaos_case.initial_plan) {
    if (t < 0 || t >= topology.num_tasks()) {
      return InvalidArgument("initial_plan task id out of range");
    }
    plan.Add(t);
  }
  PPA_RETURN_IF_ERROR(job->SetActiveReplicaSet(plan));
  PPA_RETURN_IF_ERROR(job->Start());
  sut->scenario = std::make_unique<ScenarioRunner>(job);
  return sut->scenario->Run(chaos_case.events);
}

/// Rejects timeline kinds the service layer cannot execute (plan swaps
/// and reconciles are per-tenant operations; correlated failures need a
/// single job's placement to resolve).
Status ValidateServiceTimeline(const std::vector<ScenarioEvent>& events) {
  for (size_t i = 0; i < events.size(); ++i) {
    switch (events[i].kind) {
      case ScenarioEvent::Kind::kNodeFailure:
      case ScenarioEvent::Kind::kDomainFailure:
      case ScenarioEvent::Kind::kReviveNode:
      case ScenarioEvent::Kind::kReviveDomain:
        break;
      default:
        return InvalidArgument(
            "event " + std::to_string(i) +
            ": service timelines support only node/domain failures and "
            "revivals");
    }
    if (events[i].at < Duration::Zero()) {
      return InvalidArgument("event " + std::to_string(i) +
                             " has a negative offset");
    }
  }
  return OkStatus();
}

/// Executes one event of a validated service timeline.
Status FireServiceEvent(service::ClusterService* svc,
                        const ScenarioEvent& event) {
  switch (event.kind) {
    case ScenarioEvent::Kind::kNodeFailure:
      return svc->InjectNodeFailure(event.node);
    case ScenarioEvent::Kind::kDomainFailure:
      return svc->InjectDomainFailure(event.domain);
    case ScenarioEvent::Kind::kReviveNode:
      return svc->ReviveNode(event.node);
    case ScenarioEvent::Kind::kReviveDomain:
      return svc->ReviveDomain(event.domain);
    default:
      return Unimplemented("unsupported service-level event");
  }
}

/// Builds the service of `chaos_case`, submits every tenant (counting
/// immediate admissions and queueings into `report`), and schedules the
/// timeline on the service's backend.
Status BuildService(const ChaosCase& chaos_case, const JobConfig& config,
                    backend::ExecutionBackend* be, SystemUnderTest* sut,
                    ChaosRunReport* report) {
  PPA_RETURN_IF_ERROR(ValidateServiceTimeline(chaos_case.events));
  const service::ServiceConfig service_config = chaos_case.ToServiceConfig();
  PPA_RETURN_IF_ERROR(service_config.Validate());
  sut->service = std::make_unique<service::ClusterService>(service_config, be);
  service::ClusterService* svc = sut->service.get();
  PPA_RETURN_IF_ERROR(AssignDomains(chaos_case, svc));
  report->tenants_submitted = chaos_case.tenants.size();
  for (const TenantCase& tenant : chaos_case.tenants) {
    service::TenantSpec spec;
    spec.topology_spec = tenant.topology_spec;
    spec.config = config;
    spec.replica_budget = tenant.replica_budget;
    spec.priority = tenant.priority;
    spec.initial_plan = tenant.initial_plan;
    spec.worker_affinity = tenant.worker_affinity;
    PPA_ASSIGN_OR_RETURN(const int id, svc->Submit(std::move(spec)));
    PPA_ASSIGN_OR_RETURN(const service::TenantPhase phase, svc->PhaseOf(id));
    if (phase == service::TenantPhase::kQueued) {
      ++report->tenants_queued;
    } else {
      ++report->tenants_admitted;
    }
  }
  std::vector<Status>* outcomes = &sut->service_outcomes;
  outcomes->reserve(chaos_case.events.size());
  for (const ScenarioEvent& event : chaos_case.events) {
    // Service mutations are backend callbacks, so they stay serialized
    // with tenant work in deterministic (time, seq) order.
    (void)be->ScheduleAt(TimePoint::Zero() + event.at,
                         [svc, outcomes, event] {
                           outcomes->push_back(FireServiceEvent(svc, event));
                         });
  }
  return OkStatus();
}

/// The jobs a completed run puts under test, in submission order. A
/// still-queued tenant has no job and is skipped.
std::vector<JobUnderTest> JobsUnderTest(const ChaosCase& chaos_case,
                                        SystemUnderTest* sut) {
  std::vector<JobUnderTest> jobs;
  if (sut->service == nullptr) {
    jobs.push_back({sut->job.get(), "", chaos_case.budget, TimePoint::Zero()});
    return jobs;
  }
  const std::vector<int> ids = sut->service->TenantIds();
  for (size_t i = 0; i < ids.size(); ++i) {
    StreamingJob* job = sut->service->job(ids[i]);
    if (job != nullptr) {
      jobs.push_back({job, "tenant " + std::to_string(ids[i]) + ": ",
                      chaos_case.tenants[i].replica_budget,
                      sut->service->AdmittedAt(ids[i]).value()});
    }
  }
  return jobs;
}

/// A fault-free golden twin: the job's topology, config and bindings on a
/// fresh sim with no replicas and no events.
struct GoldenTwin {
  std::unique_ptr<backend::ExecutionBackend> backend;
  std::unique_ptr<StreamingJob> job;
};

/// Runs the golden twin of `topology` for `span`, the time the job under
/// test ran. Batch contents depend only on the batch index, so the
/// grouped (task, batch) comparison aligns regardless of cluster shape.
StatusOr<GoldenTwin> RunGoldenTwin(const Topology& topology,
                                   const JobConfig& config, Duration span) {
  GoldenTwin twin;
  twin.backend = backend::MakeBackend(backend::BackendKind::kSim);
  twin.job = std::make_unique<StreamingJob>(
      topology, config, JobRuntimeDeps(twin.backend.get()));
  PPA_RETURN_IF_ERROR(
      exp::BindGenericWorkload(topology, config, twin.job.get()));
  PPA_RETURN_IF_ERROR(
      twin.job->SetActiveReplicaSet(TaskSet(topology.num_tasks())));
  PPA_RETURN_IF_ERROR(twin.job->Start());
  twin.backend->RunUntil(TimePoint::Zero() + span);
  return twin;
}

}  // namespace

StatusOr<ChaosRunReport> RunChaosCase(
    const ChaosCase& chaos_case,
    const std::vector<const Invariant*>& invariants,
    backend::BackendKind backend_kind) {
  const JobConfig config = chaos_case.ToJobConfig();
  PPA_RETURN_IF_ERROR(config.Validate());
  if (chaos_case.run_for_seconds <= 0) {
    return InvalidArgument("run_for_seconds must be positive");
  }

  ChaosRunReport report;
  report.seed = chaos_case.seed;
  report.events_scheduled = chaos_case.events.size();
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend_kind);
  SystemUnderTest sut;
  PPA_RETURN_IF_ERROR(
      chaos_case.is_service()
          ? BuildService(chaos_case, config, be.get(), &sut, &report)
          : BuildJob(chaos_case, config, be.get(), &sut));

  be->RunUntil(TimePoint::Zero() +
               Duration::Seconds(chaos_case.run_for_seconds));
  // Recovery grace: a dense schedule may still be mid-recovery (or hold
  // unfired events) when the nominal duration ends. Liveness is judged
  // by the invariants, so give the system bounded room to settle rather
  // than failing every run that was cut short.
  const auto drained = [&] {
    return sut.outcomes().size() == chaos_case.events.size();
  };
  const TimePoint grace_cap = be->now() + Duration::Seconds(1800.0);
  while ((!drained() || !sut.AllRecovered()) && be->now() < grace_cap) {
    be->RunUntil(be->now() + config.detection_interval);
  }
  // Quiet tail: a few more batches so the first post-recovery stable
  // emission closes the tentative windows.
  be->RunUntil(be->now() + config.batch_interval * 5);

  const std::vector<JobUnderTest> jobs = JobsUnderTest(chaos_case, &sut);
  for (const JobUnderTest& tested : jobs) {
    if (tested.job->stopped() || !tested.job->AllRecovered()) {
      continue;
    }
    auto reconciled = tested.job->ReconcileTentativeOutputs();
    if (!reconciled.ok() &&
        reconciled.status().code() != StatusCode::kFailedPrecondition) {
      return reconciled.status();
    }
  }
  const TimePoint end_time = be->now();
  report.events_executed = sut.outcomes().size();
  report.end_seconds = end_time.seconds();
  if (const service::ClusterService* svc = sut.service.get()) {
    report.arbitrations = svc->arbitration_log().size();
    report.degradations = static_cast<size_t>(svc->stats().degradations);
    report.promotions = static_cast<size_t>(svc->stats().promotions);
  }

  ChaosRunContext context;
  context.chaos_case = &chaos_case;
  context.service = sut.service.get();
  context.event_outcomes = &sut.outcomes();
  context.scenario_finished = drained();
  context.end_time = end_time;
  for (const JobUnderTest& tested : jobs) {
    report.sink_records += tested.job->sink_records().size();
    report.recoveries += tested.job->recovery_reports().size();
    if (tested.job->stopped()) {
      continue;  // An evicted tenant is admission-sanity's concern.
    }
    // The golden twin always runs on the deterministic sim, whatever
    // substrate the chaos run used.
    PPA_ASSIGN_OR_RETURN(
        GoldenTwin golden,
        RunGoldenTwin(tested.job->topology(), config,
                      end_time - tested.admitted_at));
    ChaosRunContext job_context = context;
    job_context.job = tested.job;
    job_context.golden = golden.job.get();
    job_context.replica_budget = tested.replica_budget;
    const size_t first = report.violations.size();
    for (const Invariant* invariant : invariants) {
      if (invariant->per_job()) {
        invariant->Check(job_context, &report.violations);
      }
    }
    for (size_t v = first; v < report.violations.size(); ++v) {
      report.violations[v].message =
          tested.label + report.violations[v].message;
    }
    if (report.violations.size() > first && report.flight_record.is_null()) {
      report.flight_record = JobFlightRecordToJson(*tested.job);
    }
  }
  for (const Invariant* invariant : invariants) {
    if (!invariant->per_job()) {
      invariant->Check(context, &report.violations);
    }
  }
  if (!report.violations.empty() && report.flight_record.is_null() &&
      !jobs.empty()) {
    // Attach the post-mortem: the flight record, the tail of trace
    // events leading up to the end of the failing run.
    report.flight_record = JobFlightRecordToJson(*jobs.front().job);
  }
  return report;
}

}  // namespace chaos
}  // namespace ppa
