#ifndef PPA_SERVICE_TENANT_H_
#define PPA_SERVICE_TENANT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "runtime/config.h"
#include "runtime/streaming_job.h"
#include "topology/topology.h"

namespace ppa {
namespace service {

/// Lifecycle phase of a tenant inside the multi-tenant ClusterService.
enum class TenantPhase {
  /// Submitted and accepted, waiting for capacity.
  kQueued,
  /// Admitted: the tenant's job runs with its full replica budget.
  kRunning,
  /// Running, but the standby pool shrank below the committed budgets and
  /// the recovery arbiter degraded this tenant to passive-only fault
  /// tolerance (replicas deactivated, ceiling zero) until capacity
  /// returns.
  kDegraded,
  /// Stopped and released (explicit eviction, or admission failed after
  /// queueing). Terminal.
  kEvicted,
};

/// Stable name of a tenant phase (e.g. "running").
std::string_view TenantPhaseToString(TenantPhase phase);

/// Everything one tenant submits to the ClusterService: the query, the job
/// configuration, the replica budget it wants from the shared standby
/// pool, its QoS priority, and optional placement constraints layered
/// over the shared cluster.
struct TenantSpec {
  /// Display name; the service substitutes "tenant<id>" when empty.
  std::string name;
  /// Topology in ParseTopologySpec() syntax.
  std::string topology_spec;
  /// Job configuration. Cluster-shape fields are overridden by the
  /// service's shared pool.
  JobConfig config = JobConfig::PpaDefaults();
  /// Active replicas this tenant may hold at once, committed against the
  /// shared standby pool at admission and enforced as a placement ceiling
  /// while running.
  int replica_budget = 0;
  /// QoS priority: 0 is most critical. Orders admission-queue scans,
  /// recovery arbitration, and degradation victim selection.
  int priority = 0;
  /// Tasks that get an active replica at admission (the PPA plan).
  std::vector<TaskId> initial_plan;
  /// If non-empty, primaries may only land on these worker nodes.
  std::vector<int> worker_affinity;
  /// Primaries never land on these worker nodes.
  std::vector<int> worker_anti_affinity;
  /// If non-empty, replicas may only land on these standby nodes.
  std::vector<int> standby_affinity;
  /// Replicas never land on these standby nodes.
  std::vector<int> standby_anti_affinity;
  /// Spread this tenant's replicas across failure domains (and its
  /// primaries, which the service always spreads).
  bool spread_replicas_across_domains = true;
  /// Operator/source bindings; BindGenericWorkload when unset.
  using BindFn =
      std::function<Status(const Topology&, const JobConfig&, StreamingJob*)>;
  BindFn bind;
};

/// Validates a spec's self-contained fields (topology syntax, config,
/// budget/priority signs, plan membership, fault-tolerance-mode fit) and
/// returns the parsed topology. Node-id ranges of the affinity lists are
/// cluster-shape-dependent and checked by ClusterService::Submit instead.
[[nodiscard]] StatusOr<Topology> ValidateTenantSpec(const TenantSpec& spec);

}  // namespace service
}  // namespace ppa

#endif  // PPA_SERVICE_TENANT_H_
