#ifndef PPA_RUNTIME_CLUSTER_H_
#define PPA_RUNTIME_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "runtime/node_pool.h"
#include "topology/topology.h"

namespace ppa {

/// Per-job placement constraints layered over the shared node pool by the
/// multi-tenant ClusterService (src/service). A default-constructed value
/// imposes nothing, which keeps standalone single-job placement untouched.
struct PlacementConstraints {
  /// Maximum replicas this job may have placed at once (-1 = unlimited).
  /// Enforced at PlaceReplicaAuto time: placing a *new* replica past the
  /// ceiling returns ResourceExhausted (re-placing a task that already has
  /// one never counts twice).
  int replica_ceiling = -1;
  /// Spread this job's replicas across failure domains: within each
  /// candidate class, prefer the domain currently hosting the fewest of
  /// *this job's* replicas before comparing global load.
  bool spread_replicas_across_domains = false;
};

/// The simulated cluster (Sec. V-A / VI): worker nodes host primary task
/// copies; standby nodes store checkpoints and run active replicas.
/// Node ids are dense: [0, num_workers) are workers,
/// [num_workers, num_workers + num_standbys) are standby nodes.
///
/// Node-level state (liveness, domains, global load) lives in a NodePool.
/// A Cluster constructed from worker/standby counts owns a private pool —
/// the classic single-job setup. A Cluster constructed from an existing
/// pool is one tenant's *view* of a shared cluster: per-task placement is
/// private to the view, while failures and load are shared with every
/// other view of the same pool.
class Cluster {
 public:
  Cluster(int num_workers, int num_standbys);
  /// A tenant view over a shared pool (multi-tenant service).
  explicit Cluster(std::shared_ptr<NodePool> pool);

  int num_workers() const { return pool_->num_workers(); }
  int num_standbys() const { return pool_->num_standbys(); }
  int num_nodes() const { return pool_->num_nodes(); }

  /// The shared node pool backing this cluster view.
  const NodePool& pool() const { return *pool_; }

  /// True iff `node` is a standby node (hosts checkpoints/replicas).
  [[nodiscard]] bool IsStandby(int node) const { return pool_->IsStandby(node); }
  /// True iff `node` has not failed (or has been revived).
  [[nodiscard]] bool NodeAlive(int node) const { return pool_->NodeAlive(node); }
  void FailNode(int node) { pool_->FailNode(node); }
  void ReviveNode(int node) { pool_->ReviveNode(node); }

  /// Failure domains model the correlated-failure root causes of Sec. I
  /// (shared switches, racks, power): nodes in one domain fail together.
  /// By default every node is its own domain.
  Status AssignDomain(int node, int domain);
  int DomainOf(int node) const;
  /// All nodes currently assigned to `domain`.
  std::vector<int> NodesInDomain(int domain) const;

  /// Replaces this view's placement constraints (service placement
  /// policy). Applies to future placements only.
  void SetConstraints(PlacementConstraints constraints);
  const PlacementConstraints& constraints() const { return constraints_; }

  /// Replicas this view currently has placed (the count the ceiling is
  /// enforced against).
  [[nodiscard]] int PlacedReplicas() const { return placed_replicas_; }

  /// Places every task of `topology` that has no primary node yet on
  /// worker node `task % num_workers()`; pinned tasks keep their node.
  void PlacePrimariesRoundRobin(const Topology& topology);

  /// Pins one primary to a specific worker node. A pin made before the
  /// round-robin placement survives it; one made after moves the task.
  Status PlacePrimary(TaskId task, int node);

  /// Places one replica on the alive standby node currently hosting the
  /// fewest replicas (globally, across every view of the pool), preferring
  /// nodes outside the primary's failure domain so a domain failure cannot
  /// take out both copies. Honors this view's constraints (ceiling,
  /// domain spreading).
  ///
  /// Determinism contract (the cross-tenant recovery arbiter depends on
  /// it): candidates are scanned in ascending node id and a candidate
  /// only replaces the incumbent when *strictly* better, so equal-load
  /// ties always break toward the lowest node id. Pinned by
  /// ServiceTest.PlaceReplicaAutoBreaksTiesByLowestNodeId.
  Status PlaceReplicaAuto(TaskId task);

  /// Releases the standby slot of `task`'s replica (no-op if none).
  void RemoveReplica(TaskId task);

  /// Active-replica takeover (Sec. V-B): the replica node becomes the
  /// task's primary node and the replica slot is released, so the pool's
  /// load counters and this view's placed-replica count follow the
  /// promotion instead of leaking the consumed slot.
  /// FailedPrecondition when the task has no replica placement.
  Status PromoteReplicaToPrimary(TaskId task);

  /// Releases every placement of this view and returns the load it
  /// contributed to the pool (tenant eviction).
  void ReleaseAllPlacements();

  /// Worker node hosting the primary of `task`; -1 if unplaced.
  int NodeOfPrimary(TaskId task) const;
  /// Standby node hosting the replica of `task`; -1 if none.
  int NodeOfReplica(TaskId task) const;

  /// Primaries placed on `node` (this view only).
  std::vector<TaskId> PrimariesOn(int node) const;
  /// Replicas placed on `node` (this view only).
  std::vector<TaskId> ReplicasOn(int node) const;

 private:
  void EnsureTask(TaskId task);
  /// Moves the primary of `task` to `node` (-1 = unplaced), keeping the
  /// pool's global primary-load accounting exact.
  void SetPrimaryNode(TaskId task, int node);
  /// Same for the replica, also maintaining placed_replicas_.
  void SetReplicaNode(TaskId task, int node);
  /// Replicas of this view currently placed in `domain`.
  [[nodiscard]] int64_t ViewReplicasInDomain(int domain) const;

  std::shared_ptr<NodePool> pool_;
  PlacementConstraints constraints_;
  int placed_replicas_ = 0;
  std::vector<int> primary_node_;  // task -> node (-1 unplaced)
  std::vector<int> replica_node_;  // task -> node (-1 none)
};

}  // namespace ppa

#endif  // PPA_RUNTIME_CLUSTER_H_
