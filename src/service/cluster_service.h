#ifndef PPA_SERVICE_CLUSTER_SERVICE_H_
#define PPA_SERVICE_CLUSTER_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "backend/execution_backend.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/status_or.h"
#include "report/json.h"
#include "runtime/node_pool.h"
#include "runtime/streaming_job.h"
#include "service/arbiter.h"
#include "service/tenant.h"

namespace ppa {
namespace service {

/// Shape and policy of the shared cluster the service manages.
struct ServiceConfig {
  /// Worker nodes of the shared pool (node ids [0, num_worker_nodes)).
  int num_worker_nodes = 16;
  /// Standby nodes of the shared pool.
  int num_standby_nodes = 8;
  /// Primary task copies one worker node can host (across all tenants).
  int worker_slots_per_node = 4;
  /// Active replicas one standby node can host (across all tenants).
  int standby_slots_per_node = 4;
  /// Recovery-arbitration slot: the tenant ranked i-th in an incident has
  /// its recovery completions held back by i * arbitration_slot.
  Duration arbitration_slot = Duration::Seconds(2);

  /// InvalidArgument when any count/slot is non-positive (standbys may be
  /// zero) or the arbitration slot is negative.
  [[nodiscard]] Status Validate() const;
};

/// Service-level admission and incident counters (tenant-level metrics
/// live in each tenant job's own registry).
struct AdmissionStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t queued = 0;
  int64_t evicted = 0;
  int64_t degradations = 0;
  int64_t promotions = 0;
  int64_t arbitrations = 0;
  int64_t node_failures = 0;
  int64_t node_revivals = 0;
};

/// Multi-tenant control plane over one shared cluster (the paper studies
/// one job; production MPSPEs run many, and correlated failures cut
/// across them). The service owns a NodePool and the tenants' jobs, all
/// driven by one execution backend, whose one event order makes the
/// tenants of a shared pool interleave exactly as the deterministic sim
/// would:
///
///  - Admission control: Submit() validates a TenantSpec, rejects work
///    that can never fit (even on an empty, fully alive cluster), admits
///    what fits now, and queues the rest in (priority, arrival) order.
///  - Placement: primaries spread across the tenant's failure domains on
///    the least-loaded allowed alive workers; replicas go through the
///    tenant Cluster view's PlacementConstraints (budget ceiling,
///    domain spreading).
///  - Failure propagation: Inject*Failure() fails nodes once in the
///    shared pool and notifies every running tenant, so one rack outage
///    hits all tenants placed there — the cross-job correlated failure.
///  - Recovery arbitration: each incident ranks the affected tenants by
///    (priority asc, fidelity-at-risk desc, tenant asc) and holds the
///    i-th tenant's recovery by i * arbitration_slot, serializing
///    recovery load on the shared standbys deterministically.
///  - Standby rebalancing: when failures shrink the standby pool below
///    the committed budgets, the least-important PPA tenants degrade to
///    passive-only; revivals re-promote the most important first, then
///    re-scan the admission queue.
///
/// Everything is deterministic: same specs + same event sequence on the
/// same backend reproduce identical traces, reports, and arbitration
/// logs.
class ClusterService {
 public:
  /// PPA_CHECK-fails on an invalid config. `backend` must outlive the
  /// service.
  ClusterService(ServiceConfig config, backend::ExecutionBackend* backend);

  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  const ServiceConfig& config() const { return config_; }
  /// The shared physical cluster.
  const NodePool& pool() const { return *pool_; }
  /// Assigns a pool node to a failure domain (before or between
  /// admissions; placements already made are not migrated).
  Status AssignDomain(int node, int domain);

  /// Submits a tenant. Returns its id (dense, in submission order) when
  /// admitted, or when queued because it does not fit now (it is admitted
  /// later in (priority, arrival) order as capacity frees up);
  /// InvalidArgument for malformed specs; ResourceExhausted when the job
  /// can never fit, even on an empty, fully alive cluster. Rejected
  /// tenants are not recorded.
  StatusOr<int> Submit(TenantSpec spec);

  /// Evicts a tenant: a queued tenant is dropped; a running one is
  /// stopped, its placements released, and the freed capacity offered to
  /// degraded tenants and then the queue. Records stay readable.
  Status Evict(int tenant);

  /// Fails a pool node for every tenant at once, then runs one
  /// arbitration round and rebalances standby budgets.
  Status InjectNodeFailure(int node);

  /// Fails every alive node of a failure domain (one arbitration round
  /// for the whole incident — the correlated multi-tenant failure).
  Status InjectDomainFailure(int domain);

  /// Revives a failed node; re-promotes degraded tenants and re-scans the
  /// admission queue against the recovered capacity.
  Status ReviveNode(int node);

  /// Revives every failed node of a domain.
  Status ReviveDomain(int domain);

  /// Ids of every recorded tenant, ascending (includes evicted ones).
  [[nodiscard]] std::vector<int> TenantIds() const;

  /// Phase of a tenant; NotFound for unknown ids.
  [[nodiscard]] StatusOr<TenantPhase> PhaseOf(int tenant) const;

  /// The tenant's job; nullptr while queued, after a queued-tenant
  /// eviction, or for unknown ids. Evicted running tenants keep their
  /// (stopped) job readable.
  [[nodiscard]] const StreamingJob* job(int tenant) const;
  [[nodiscard]] StreamingJob* job(int tenant);

  /// The tenant's spec as submitted; nullptr for unknown ids.
  [[nodiscard]] const TenantSpec* spec(int tenant) const;

  /// The tenant's parsed topology; nullptr for unknown ids.
  [[nodiscard]] const Topology* topology(int tenant) const;

  /// Virtual time the tenant was (last) admitted.
  [[nodiscard]] StatusOr<TimePoint> AdmittedAt(int tenant) const;

  /// Arbitration holds the tenant's detections actually consumed.
  [[nodiscard]] int64_t HoldsApplied(int tenant) const;

  /// True when no running tenant has failed or recovering tasks.
  [[nodiscard]] bool AllRecovered() const;

  /// Every arbitration incident, in decision order.
  const std::vector<ArbitrationDecision>& arbitration_log() const {
    return arbitration_log_;
  }

  const AdmissionStats& stats() const { return stats_; }

  /// Service-wide report with a stable field order: shape, admission
  /// stats, one entry per tenant (phase, budget, placement, output and
  /// recovery counts), and the arbitration log. Byte-identical across
  /// runs of the same scenario.
  [[nodiscard]] JsonValue ReportToJson() const;

 private:
  struct Tenant {
    int id = -1;
    TenantSpec spec;
    Topology topology;
    TenantPhase phase = TenantPhase::kQueued;
    /// Admission-queue tie-break within a priority class.
    uint64_t arrival = 0;
    std::unique_ptr<StreamingJob> job;
    TimePoint admitted_at;
    /// Hold assigned by the last arbitration round, consumed by the
    /// job's next detection.
    Duration pending_hold = Duration::Zero();
    int64_t holds_applied = 0;
  };

  /// True when `node` is ruled out for this tenant's primaries.
  [[nodiscard]] static bool WorkerExcluded(const TenantSpec& spec, int node);

  /// Free primary slots summed over alive workers the tenant allows.
  [[nodiscard]] int64_t FreeWorkerSlots(const TenantSpec& spec) const;
  /// Replica-slot capacity summed over every alive standby.
  [[nodiscard]] int64_t AliveStandbySlots() const;
  /// Replica budgets committed by tenants currently running undegraded.
  [[nodiscard]] int64_t CommittedStandbyBudget() const;

  /// Capacity check for admitting `t` right now.
  [[nodiscard]] bool FitsNow(const Tenant& t) const;
  /// Builds, places, binds, and starts the tenant's job. On failure the
  /// partial job is stopped and released; the tenant keeps its phase.
  [[nodiscard]] Status AdmitNow(Tenant& t);
  /// Spread-aware primary placement (see class comment).
  [[nodiscard]] Status PlaceTenantPrimaries(const Tenant& t,
                                            StreamingJob* job);
  /// Admits every queued tenant that fits, in (priority, arrival) order.
  void ScanQueue();

  /// Pool-level failure + per-tenant notification (no arbitration).
  void FailNodeInternal(int node);
  /// Pool-level revival + per-tenant notification (no rebalancing).
  void ReviveNodeInternal(int node);
  /// Ranks tenants with unrecovered tasks and assigns pending holds.
  void Arbitrate();
  /// Consumed by tenant jobs' RecoveryArbiter callbacks at detection.
  [[nodiscard]] Duration ConsumeHold(int tenant);
  /// Degrades / re-promotes tenants until committed budgets fit the alive
  /// standby pool.
  void RebalanceStandbys();
  void DegradeTenant(Tenant& t);
  void PromoteTenant(Tenant& t);

  ServiceConfig config_;
  backend::ExecutionBackend* backend_;
  std::shared_ptr<NodePool> pool_;
  std::map<int, Tenant> tenants_;
  int next_tenant_id_ = 0;
  uint64_t next_arrival_ = 0;
  AdmissionStats stats_;
  std::vector<ArbitrationDecision> arbitration_log_;
};

}  // namespace service
}  // namespace ppa

#endif  // PPA_SERVICE_CLUSTER_SERVICE_H_
