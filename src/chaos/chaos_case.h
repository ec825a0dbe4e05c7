#ifndef PPA_CHAOS_CHAOS_CASE_H_
#define PPA_CHAOS_CHAOS_CASE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "report/json.h"
#include "runtime/config.h"
#include "runtime/scenario.h"
#include "service/cluster_service.h"
#include "topology/topology.h"

namespace ppa {
namespace chaos {

/// One tenant of a service case: a job submitted to the shared
/// ClusterService.
struct TenantCase {
  /// Topology as ParseTopologySpec() text.
  std::string topology_spec;
  /// Replica budget committed against the shared standby pool.
  int replica_budget = 0;
  /// QoS priority (0 = most critical).
  int priority = 0;
  /// Tasks actively replicated at admission.
  std::vector<TaskId> initial_plan;
  /// If non-empty, primaries may only land on these worker nodes (lets
  /// scripted drills pin tenants into specific failure domains).
  std::vector<int> worker_affinity;

  bool operator==(const TenantCase&) const = default;
};

/// A self-contained chaos experiment: everything needed to reproduce one
/// randomized fault-injection run bit for bit. A ChaosCase round-trips
/// through JSON, which is the minimizer's repro artifact format
/// (`chaos_hunt --replay <file>`).
///
/// A case comes in one of two kinds, told apart by `tenants`:
///  - single-job (`tenants` empty): one StreamingJob built from
///    `topology_spec`, `initial_plan` and `budget` on a private cluster;
///  - service (`tenants` non-empty): a ClusterService over a shared pool
///    shaped by the node counts and the three service scalars below, with
///    one job per tenant. Its timeline holds only node/domain failures and
///    revivals, the events the service layer executes.
/// Every other field means the same for both kinds.
struct ChaosCase {
  /// Seed the case was generated from (recorded for provenance; replaying
  /// a case never re-rolls any dice).
  uint64_t seed = 1;

  /// Topology as ParseTopologySpec() text (see topology/serialize.h).
  /// Single-job cases only.
  std::string topology_spec;

  /// Job configuration scalars (a subset of JobConfig that chaos varies;
  /// everything else comes from JobConfig::PpaDefaults()). A service case
  /// applies them to every tenant.
  double batch_interval_seconds = 1.0;
  double detection_interval_seconds = 5.0;
  double checkpoint_interval_seconds = 15.0;
  int num_worker_nodes = 4;
  int num_standby_nodes = 2;
  int64_t window_batches = 10;
  /// Single-job cases only (service case JSON does not carry it).
  bool delta_checkpoints = false;

  /// Recovery mode of the run (src/af). kPpa replays exactly; kApprox /
  /// kHybrid thin checkpoints within the error budget below. Serialized
  /// optional-with-default, so pre-af repro JSONs keep parsing.
  af::RecoveryMode recovery_mode = af::RecoveryMode::kPpa;
  /// Per-task absolute divergence budget (ErrorBudgetSpec).
  int64_t af_task_divergence_records = 5000;
  /// Cap on the certified per-batch output-loss bound.
  double af_max_certified_loss = 0.25;

  /// Failure-domain id of each cluster node (dense, size = worker +
  /// standby nodes). Empty keeps the default singleton domains.
  std::vector<int> node_domains;

  /// Tasks actively replicated before the run starts. Single-job cases
  /// only; tenants carry their own.
  std::vector<TaskId> initial_plan;

  /// Replication budget the initial plan was drawn with (recorded so the
  /// replica-budget invariant knows the ceiling; plan swaps during the
  /// run are generated within the same budget). Single-job cases only;
  /// tenants carry their own.
  int budget = 0;

  /// The jobs of a service case, in submission order. Empty for a
  /// single-job case.
  std::vector<TenantCase> tenants;
  /// Shared-pool shape of a service case (service::ServiceConfig).
  int worker_slots_per_node = 4;
  int standby_slots_per_node = 4;
  double arbitration_slot_seconds = 2.0;

  /// The fault timeline.
  std::vector<ScenarioEvent> events;

  /// Simulated duration before the recovery grace period begins.
  double run_for_seconds = 60.0;

  bool operator==(const ChaosCase&) const = default;

  /// True for a service case (non-empty `tenants`).
  [[nodiscard]] bool is_service() const { return !tenants.empty(); }

  /// JobConfig::PpaDefaults() overridden with this case's scalars.
  [[nodiscard]] JobConfig ToJobConfig() const;
  /// The shared-pool shape a service case runs on.
  [[nodiscard]] service::ServiceConfig ToServiceConfig() const;
};

/// Serializes a case as a stable-field-order JSON object. A single-job
/// case writes `topology_spec`, `delta_checkpoints`, `initial_plan` and
/// `budget`; a service case writes `tenants` and the three service
/// scalars instead.
[[nodiscard]] JsonValue ChaosCaseToJson(const ChaosCase& chaos_case);

/// Inverse of ChaosCaseToJson. The presence of `tenants` selects the
/// kind, and each kind's own keys are required.
[[nodiscard]] StatusOr<ChaosCase> ChaosCaseFromJson(const JsonValue& json);

/// Parses a case from JSON text (a serialized ChaosCaseToJson object).
[[nodiscard]] StatusOr<ChaosCase> ParseChaosCaseJson(std::string_view text);

}  // namespace chaos
}  // namespace ppa

#endif  // PPA_CHAOS_CHAOS_CASE_H_
