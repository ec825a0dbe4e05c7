#include "service/cluster_service.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/logging.h"
#include "fidelity/metrics.h"
#include "topology/task_set.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace service {

namespace {

bool Contains(const std::vector<int>& nodes, int node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

Status CheckNodeIds(const std::vector<int>& nodes, int lo, int hi,
                    const char* label) {
  for (int node : nodes) {
    if (node < lo || node >= hi) {
      return InvalidArgument(std::string(label) +
                             " references a node outside the pool");
    }
  }
  return OkStatus();
}

}  // namespace

Status ServiceConfig::Validate() const {
  if (num_worker_nodes <= 0) {
    return InvalidArgument("num_worker_nodes must be positive");
  }
  if (num_standby_nodes < 0) {
    return InvalidArgument("num_standby_nodes must be >= 0");
  }
  if (worker_slots_per_node <= 0) {
    return InvalidArgument("worker_slots_per_node must be positive");
  }
  if (standby_slots_per_node <= 0) {
    return InvalidArgument("standby_slots_per_node must be positive");
  }
  if (arbitration_slot < Duration::Zero()) {
    return InvalidArgument("arbitration_slot must be >= 0");
  }
  return OkStatus();
}

ClusterService::ClusterService(ServiceConfig config,
                               backend::ExecutionBackend* backend)
    : config_(config),
      backend_(backend),
      pool_(std::make_shared<NodePool>(config.num_worker_nodes,
                                       config.num_standby_nodes)) {
  PPA_CHECK_OK(config_.Validate());
  PPA_CHECK(backend_ != nullptr);
}

Status ClusterService::AssignDomain(int node, int domain) {
  return pool_->AssignDomain(node, domain);
}

StatusOr<int> ClusterService::Submit(TenantSpec spec) {
  ++stats_.submitted;
  StatusOr<Topology> topology = ValidateTenantSpec(spec);
  if (!topology.ok()) {
    ++stats_.rejected;
    return topology.status();
  }

  // Affinity lists must name real nodes of the right class.
  Status ids = OkStatus();
  const int workers = pool_->num_workers();
  const int nodes = pool_->num_nodes();
  if (ids.ok()) ids = CheckNodeIds(spec.worker_affinity, 0, workers, "worker_affinity");
  if (ids.ok()) ids = CheckNodeIds(spec.worker_anti_affinity, 0, workers, "worker_anti_affinity");
  if (ids.ok()) ids = CheckNodeIds(spec.standby_affinity, workers, nodes, "standby_affinity");
  if (ids.ok()) ids = CheckNodeIds(spec.standby_anti_affinity, workers, nodes, "standby_anti_affinity");
  if (!ids.ok()) {
    ++stats_.rejected;
    return ids;
  }

  // Permanent infeasibility: reject jobs that could not fit even on an
  // empty, fully alive cluster.
  int allowed_workers = 0;
  for (int node = 0; node < workers; ++node) {
    if (!WorkerExcluded(spec, node)) {
      ++allowed_workers;
    }
  }
  if (topology.value().num_tasks() >
      static_cast<int64_t>(allowed_workers) * config_.worker_slots_per_node) {
    ++stats_.rejected;
    return ResourceExhausted("job has more tasks than the cluster can host");
  }
  int allowed_standbys = 0;
  for (int node = workers; node < nodes; ++node) {
    const bool in_affinity =
        spec.standby_affinity.empty() || Contains(spec.standby_affinity, node);
    if (in_affinity && !Contains(spec.standby_anti_affinity, node)) {
      ++allowed_standbys;
    }
  }
  if (spec.replica_budget > static_cast<int64_t>(allowed_standbys) *
                                config_.standby_slots_per_node) {
    ++stats_.rejected;
    return ResourceExhausted("replica_budget exceeds the standby pool");
  }

  const int id = next_tenant_id_++;
  Tenant t;
  t.id = id;
  t.spec = std::move(spec);
  if (t.spec.name.empty()) {
    t.spec.name = "tenant" + std::to_string(id);
  }
  t.topology = std::move(topology).value();
  t.arrival = next_arrival_++;
  auto [it, inserted] = tenants_.emplace(id, std::move(t));
  PPA_CHECK(inserted);
  Tenant& tenant = it->second;

  if (FitsNow(tenant)) {
    Status admitted = AdmitNow(tenant);
    if (!admitted.ok()) {
      tenants_.erase(it);
      --next_tenant_id_;
      --next_arrival_;
      ++stats_.rejected;
      return admitted;
    }
    ++stats_.admitted;
    return id;
  }
  tenant.phase = TenantPhase::kQueued;
  ++stats_.queued;
  return id;
}

Status ClusterService::Evict(int tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFound("unknown tenant");
  }
  Tenant& t = it->second;
  if (t.phase == TenantPhase::kEvicted) {
    return FailedPrecondition("tenant already evicted");
  }
  const bool was_running = t.job != nullptr;
  if (was_running) {
    t.job->Stop();
    t.job->cluster().ReleaseAllPlacements();
  }
  t.phase = TenantPhase::kEvicted;
  t.pending_hold = Duration::Zero();
  ++stats_.evicted;
  if (was_running) {
    RebalanceStandbys();
    ScanQueue();
  }
  return OkStatus();
}

Status ClusterService::InjectNodeFailure(int node) {
  if (node < 0 || node >= pool_->num_nodes()) {
    return InvalidArgument("node out of range");
  }
  if (!pool_->NodeAlive(node)) {
    return FailedPrecondition("node already failed");
  }
  FailNodeInternal(node);
  Arbitrate();
  RebalanceStandbys();
  return OkStatus();
}

Status ClusterService::InjectDomainFailure(int domain) {
  const std::vector<int> members = pool_->NodesInDomain(domain);
  if (members.empty()) {
    return NotFound("no nodes in domain");
  }
  bool any_alive = false;
  for (int node : members) {
    if (pool_->NodeAlive(node)) {
      any_alive = true;
      FailNodeInternal(node);
    }
  }
  if (!any_alive) {
    return FailedPrecondition("domain already failed");
  }
  Arbitrate();
  RebalanceStandbys();
  return OkStatus();
}

Status ClusterService::ReviveNode(int node) {
  if (node < 0 || node >= pool_->num_nodes()) {
    return InvalidArgument("node out of range");
  }
  if (pool_->NodeAlive(node)) {
    return FailedPrecondition("node is alive");
  }
  ReviveNodeInternal(node);
  RebalanceStandbys();
  ScanQueue();
  return OkStatus();
}

Status ClusterService::ReviveDomain(int domain) {
  const std::vector<int> members = pool_->NodesInDomain(domain);
  if (members.empty()) {
    return NotFound("no nodes in domain");
  }
  bool any_failed = false;
  for (int node : members) {
    if (!pool_->NodeAlive(node)) {
      any_failed = true;
      ReviveNodeInternal(node);
    }
  }
  if (!any_failed) {
    return FailedPrecondition("domain fully alive");
  }
  RebalanceStandbys();
  ScanQueue();
  return OkStatus();
}

std::vector<int> ClusterService::TenantIds() const {
  std::vector<int> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) {
    ids.push_back(id);
  }
  return ids;
}

StatusOr<TenantPhase> ClusterService::PhaseOf(int tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return NotFound("unknown tenant");
  }
  return it->second.phase;
}

const StreamingJob* ClusterService::job(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.job.get();
}

StreamingJob* ClusterService::job(int tenant) {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.job.get();
}

const TenantSpec* ClusterService::spec(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second.spec;
}

const Topology* ClusterService::topology(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second.topology;
}

StatusOr<TimePoint> ClusterService::AdmittedAt(int tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.job == nullptr) {
    return NotFound("tenant was never admitted");
  }
  return it->second.admitted_at;
}

int64_t ClusterService::HoldsApplied(int tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.holds_applied;
}

bool ClusterService::AllRecovered() const {
  for (const auto& [id, t] : tenants_) {
    if ((t.phase == TenantPhase::kRunning ||
         t.phase == TenantPhase::kDegraded) &&
        !t.job->AllRecovered()) {
      return false;
    }
  }
  return true;
}

bool ClusterService::WorkerExcluded(const TenantSpec& spec, int node) {
  if (!spec.worker_affinity.empty() && !Contains(spec.worker_affinity, node)) {
    return true;
  }
  return Contains(spec.worker_anti_affinity, node);
}

int64_t ClusterService::FreeWorkerSlots(const TenantSpec& spec) const {
  int64_t free = 0;
  for (int node = 0; node < pool_->num_workers(); ++node) {
    if (!pool_->NodeAlive(node) || WorkerExcluded(spec, node)) {
      continue;
    }
    free += std::max<int64_t>(
        0, config_.worker_slots_per_node - pool_->PrimaryLoad(node));
  }
  return free;
}

int64_t ClusterService::AliveStandbySlots() const {
  int64_t slots = 0;
  for (int node = pool_->num_workers(); node < pool_->num_nodes(); ++node) {
    if (pool_->NodeAlive(node)) {
      slots += config_.standby_slots_per_node;
    }
  }
  return slots;
}

int64_t ClusterService::CommittedStandbyBudget() const {
  int64_t committed = 0;
  for (const auto& [id, t] : tenants_) {
    if (t.phase == TenantPhase::kRunning) {
      committed += t.spec.replica_budget;
    }
  }
  return committed;
}

bool ClusterService::FitsNow(const Tenant& t) const {
  if (FreeWorkerSlots(t.spec) < t.topology.num_tasks()) {
    return false;
  }
  return CommittedStandbyBudget() + t.spec.replica_budget <=
         AliveStandbySlots();
}

Status ClusterService::AdmitNow(Tenant& t) {
  auto job = std::make_unique<StreamingJob>(
      t.topology, t.spec.config, JobRuntimeDeps(backend_, pool_));
  PlacementConstraints constraints;
  constraints.replica_ceiling = t.spec.replica_budget;
  constraints.replica_affinity = t.spec.standby_affinity;
  constraints.replica_anti_affinity = t.spec.standby_anti_affinity;
  constraints.spread_replicas_across_domains =
      t.spec.spread_replicas_across_domains;
  job->cluster().SetConstraints(constraints);

  const int id = t.id;
  Status status = [&]() -> Status {
    PPA_RETURN_IF_ERROR(PlaceTenantPrimaries(t, job.get()));
    if (t.spec.bind) {
      PPA_RETURN_IF_ERROR(t.spec.bind(t.topology, t.spec.config, job.get()));
    } else {
      PPA_RETURN_IF_ERROR(
          BindGenericWorkload(t.topology, t.spec.config, job.get()));
    }
    if (!t.spec.initial_plan.empty()) {
      TaskSet plan(static_cast<int>(t.topology.num_tasks()));
      for (TaskId task : t.spec.initial_plan) {
        plan.Add(task);
      }
      PPA_RETURN_IF_ERROR(job->SetActiveReplicaSet(plan));
    }
    PPA_RETURN_IF_ERROR(job->SetRecoveryArbiter(
        [this, id](const std::vector<TaskRecoverySpec>&) {
          return ConsumeHold(id);
        }));
    return job->Start();
  }();
  if (!status.ok()) {
    job->Stop();
    job->cluster().ReleaseAllPlacements();
    return status;
  }
  t.job = std::move(job);
  t.admitted_at = backend_->now();
  t.phase = TenantPhase::kRunning;
  return OkStatus();
}

Status ClusterService::PlaceTenantPrimaries(const Tenant& t,
                                            StreamingJob* job) {
  // Spread this tenant's primaries across failure domains: each task goes
  // to the allowed alive worker with a free slot whose domain hosts the
  // fewest of this tenant's primaries so far, breaking ties by least
  // global primary load, then lowest node id (strict improvements only,
  // matching the PlaceReplicaAuto determinism contract).
  std::map<int, int64_t> tenant_domain_load;
  const int64_t num_tasks = t.topology.num_tasks();
  for (TaskId task = 0; task < num_tasks; ++task) {
    int best = -1;
    int64_t best_domain_load = 0;
    int64_t best_load = 0;
    for (int node = 0; node < pool_->num_workers(); ++node) {
      if (!pool_->NodeAlive(node) || WorkerExcluded(t.spec, node)) {
        continue;
      }
      const int64_t load = pool_->PrimaryLoad(node);
      if (load >= config_.worker_slots_per_node) {
        continue;
      }
      const int64_t domain_load = tenant_domain_load[pool_->DomainOf(node)];
      if (best < 0 || domain_load < best_domain_load ||
          (domain_load == best_domain_load && load < best_load)) {
        best = node;
        best_domain_load = domain_load;
        best_load = load;
      }
    }
    if (best < 0) {
      return ResourceExhausted("no free worker slot for primary");
    }
    PPA_RETURN_IF_ERROR(job->cluster().PlacePrimary(task, best));
    ++tenant_domain_load[pool_->DomainOf(best)];
  }
  return OkStatus();
}

void ClusterService::ScanQueue() {
  std::vector<int> queued;
  for (const auto& [id, t] : tenants_) {
    if (t.phase == TenantPhase::kQueued) {
      queued.push_back(id);
    }
  }
  std::sort(queued.begin(), queued.end(), [this](int a, int b) {
    const Tenant& ta = tenants_.at(a);
    const Tenant& tb = tenants_.at(b);
    if (ta.spec.priority != tb.spec.priority) {
      return ta.spec.priority < tb.spec.priority;
    }
    return ta.arrival < tb.arrival;
  });
  for (int id : queued) {
    Tenant& t = tenants_.at(id);
    if (!FitsNow(t)) {
      continue;
    }
    Status admitted = AdmitNow(t);
    if (admitted.ok()) {
      ++stats_.admitted;
    } else {
      PPA_LOG(Warning) << "queued tenant " << id
                       << " failed admission: " << admitted.message();
      t.phase = TenantPhase::kEvicted;
      ++stats_.evicted;
    }
  }
}

void ClusterService::FailNodeInternal(int node) {
  pool_->FailNode(node);
  ++stats_.node_failures;
  for (auto& [id, t] : tenants_) {
    if (t.phase == TenantPhase::kRunning || t.phase == TenantPhase::kDegraded) {
      PPA_CHECK_OK(t.job->NotifyNodeFailed(node));
    }
  }
}

void ClusterService::ReviveNodeInternal(int node) {
  pool_->ReviveNode(node);
  ++stats_.node_revivals;
  for (auto& [id, t] : tenants_) {
    if (t.phase == TenantPhase::kRunning || t.phase == TenantPhase::kDegraded) {
      PPA_CHECK_OK(t.job->NotifyNodeRevived(node));
    }
  }
}

void ClusterService::Arbitrate() {
  std::vector<ArbitrationClaim> claims;
  for (auto& [id, t] : tenants_) {
    if (t.phase != TenantPhase::kRunning && t.phase != TenantPhase::kDegraded) {
      continue;
    }
    const TaskSet failed = t.job->UnrecoveredTasks();
    if (failed.empty()) {
      t.pending_hold = Duration::Zero();
      continue;
    }
    ArbitrationClaim claim;
    claim.tenant = id;
    claim.priority = t.spec.priority;
    claim.fidelity_at_risk = 1.0 - ComputeOutputFidelity(t.topology, failed);
    claim.failed_tasks = static_cast<int>(failed.ToVector().size());
    claims.push_back(claim);
  }
  if (claims.empty()) {
    return;
  }
  const std::vector<ArbitrationClaim> order = ArbitrationOrder(std::move(claims));
  ArbitrationDecision decision;
  decision.at = backend_->now();
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const Duration hold =
        config_.arbitration_slot * static_cast<int64_t>(rank);
    tenants_.at(order[rank].tenant).pending_hold = hold;
    decision.order.push_back(ArbitrationHold{order[rank], hold});
  }
  arbitration_log_.push_back(std::move(decision));
  ++stats_.arbitrations;
}

Duration ClusterService::ConsumeHold(int tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Duration::Zero();
  }
  const Duration hold = it->second.pending_hold;
  it->second.pending_hold = Duration::Zero();
  if (hold > Duration::Zero()) {
    ++it->second.holds_applied;
  }
  return hold;
}

void ClusterService::RebalanceStandbys() {
  const int64_t slots = AliveStandbySlots();
  int64_t committed = CommittedStandbyBudget();

  // Shed load: degrade the least important running PPA tenants (highest
  // priority number, then highest id) until the committed budgets fit.
  while (committed > slots) {
    int victim = -1;
    for (auto& [id, t] : tenants_) {
      if (t.phase != TenantPhase::kRunning ||
          t.spec.config.ft_mode != FtMode::kPpa || t.spec.replica_budget <= 0) {
        continue;
      }
      if (victim < 0) {
        victim = id;
        continue;
      }
      const Tenant& incumbent = tenants_.at(victim);
      if (t.spec.priority > incumbent.spec.priority ||
          (t.spec.priority == incumbent.spec.priority && id > victim)) {
        victim = id;
      }
    }
    if (victim < 0) {
      PPA_LOG(Warning) << "standby pool oversubscribed by "
                       << committed - slots
                       << " replicas with no degradable tenant";
      break;
    }
    Tenant& t = tenants_.at(victim);
    committed -= t.spec.replica_budget;
    DegradeTenant(t);
  }

  // Reclaim: re-promote the most important degraded tenants first.
  std::vector<int> degraded;
  for (const auto& [id, t] : tenants_) {
    if (t.phase == TenantPhase::kDegraded) {
      degraded.push_back(id);
    }
  }
  std::sort(degraded.begin(), degraded.end(), [this](int a, int b) {
    const Tenant& ta = tenants_.at(a);
    const Tenant& tb = tenants_.at(b);
    if (ta.spec.priority != tb.spec.priority) {
      return ta.spec.priority < tb.spec.priority;
    }
    return a < b;
  });
  for (int id : degraded) {
    Tenant& t = tenants_.at(id);
    if (committed + t.spec.replica_budget > slots) {
      continue;
    }
    committed += t.spec.replica_budget;
    PromoteTenant(t);
  }
}

void ClusterService::DegradeTenant(Tenant& t) {
  PlacementConstraints constraints = t.job->cluster().constraints();
  constraints.replica_ceiling = 0;
  t.job->cluster().SetConstraints(constraints);
  const TaskSet none(static_cast<int>(t.topology.num_tasks()));
  Status applied = t.job->ApplyActiveReplicaSet(none);
  if (!applied.ok()) {
    PPA_LOG(Warning) << "degrading tenant " << t.id
                     << " failed: " << applied.message();
  }
  t.phase = TenantPhase::kDegraded;
  ++stats_.degradations;
}

void ClusterService::PromoteTenant(Tenant& t) {
  PlacementConstraints constraints = t.job->cluster().constraints();
  constraints.replica_ceiling = t.spec.replica_budget;
  t.job->cluster().SetConstraints(constraints);
  t.phase = TenantPhase::kRunning;
  if (!t.spec.initial_plan.empty()) {
    TaskSet plan(static_cast<int>(t.topology.num_tasks()));
    for (TaskId task : t.spec.initial_plan) {
      plan.Add(task);
    }
    Status applied = t.job->ApplyActiveReplicaSet(plan);
    if (!applied.ok()) {
      PPA_LOG(Warning) << "re-promoting tenant " << t.id
                       << " failed: " << applied.message();
    }
  }
  ++stats_.promotions;
}

JsonValue ClusterService::ReportToJson() const {
  JsonValue root = JsonValue::Object();

  JsonValue shape = JsonValue::Object();
  shape.Set("workers", config_.num_worker_nodes);
  shape.Set("standbys", config_.num_standby_nodes);
  shape.Set("worker_slots_per_node", config_.worker_slots_per_node);
  shape.Set("standby_slots_per_node", config_.standby_slots_per_node);
  shape.Set("arbitration_slot_s", config_.arbitration_slot.seconds());
  root.Set("service", std::move(shape));

  JsonValue admission = JsonValue::Object();
  admission.Set("submitted", stats_.submitted);
  admission.Set("admitted", stats_.admitted);
  admission.Set("rejected", stats_.rejected);
  admission.Set("queued", stats_.queued);
  admission.Set("evicted", stats_.evicted);
  admission.Set("degradations", stats_.degradations);
  admission.Set("promotions", stats_.promotions);
  admission.Set("arbitrations", stats_.arbitrations);
  admission.Set("node_failures", stats_.node_failures);
  admission.Set("node_revivals", stats_.node_revivals);
  root.Set("admission", std::move(admission));

  JsonValue tenants = JsonValue::Array();
  for (const auto& [id, t] : tenants_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("tenant", id);
    entry.Set("name", t.spec.name);
    entry.Set("phase", std::string(TenantPhaseToString(t.phase)));
    entry.Set("priority", t.spec.priority);
    entry.Set("replica_budget", t.spec.replica_budget);
    entry.Set("tasks", t.topology.num_tasks());
    entry.Set("ft_mode", std::string(FtModeToString(t.spec.config.ft_mode)));
    if (t.job != nullptr) {
      entry.Set("admitted_at_s", t.admitted_at.seconds());
      entry.Set("placed_replicas", t.job->cluster().PlacedReplicas());
      entry.Set("sink_records",
                static_cast<int64_t>(t.job->sink_records().size()));
      entry.Set("recoveries",
                static_cast<int64_t>(t.job->recovery_reports().size()));
      entry.Set("holds_applied", t.holds_applied);
      entry.Set("all_recovered", t.job->AllRecovered());
    }
    tenants.Append(std::move(entry));
  }
  root.Set("tenants", std::move(tenants));

  JsonValue arbitration = JsonValue::Array();
  for (const ArbitrationDecision& decision : arbitration_log_) {
    arbitration.Append(ArbitrationDecisionToJson(decision));
  }
  root.Set("arbitration", std::move(arbitration));
  return root;
}

}  // namespace service
}  // namespace ppa
