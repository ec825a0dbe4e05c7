#ifndef PPA_RUNTIME_NODE_POOL_H_
#define PPA_RUNTIME_NODE_POOL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace ppa {

/// Shared physical state of a simulated cluster: node liveness, failure
/// domains, and global placement load. A standalone single-job Cluster
/// owns its private pool; the multi-tenant ClusterService (src/service)
/// creates one pool and hands it to every tenant's Cluster view, so a
/// node failure, a domain assignment, or a standby's replica load is
/// visible to all tenants at once while per-task placement stays per job.
///
/// Node ids are dense: [0, num_workers) are workers,
/// [num_workers, num_workers + num_standbys) are standby nodes.
class NodePool {
 public:
  NodePool(int num_workers, int num_standbys);

  int num_workers() const { return num_workers_; }
  int num_standbys() const { return num_standbys_; }
  int num_nodes() const { return num_workers_ + num_standbys_; }

  /// True iff `node` is a standby node (hosts checkpoints/replicas).
  [[nodiscard]] bool IsStandby(int node) const { return node >= num_workers_; }
  /// True iff `node` has not failed (or has been revived).
  [[nodiscard]] bool NodeAlive(int node) const;
  void FailNode(int node);
  void ReviveNode(int node);

  /// Failure domains model the correlated-failure root causes of Sec. I
  /// (shared switches, racks, power): nodes in one domain fail together.
  /// By default every node is its own domain.
  Status AssignDomain(int node, int domain);
  int DomainOf(int node) const;
  /// All nodes currently assigned to `domain`, ascending.
  std::vector<int> NodesInDomain(int domain) const;

  /// Primaries placed on `node` across every Cluster view of this pool.
  [[nodiscard]] int64_t PrimaryLoad(int node) const;
  /// Replicas placed on `node` across every Cluster view of this pool.
  [[nodiscard]] int64_t ReplicaLoad(int node) const;
  /// Adjusts the global primary count of `node` (Cluster-internal).
  void AddPrimaryLoad(int node, int64_t delta);
  /// Adjusts the global replica count of `node` (Cluster-internal).
  void AddReplicaLoad(int node, int64_t delta);

 private:
  int num_workers_;
  int num_standbys_;
  std::vector<bool> node_alive_;
  std::vector<int> node_domain_;
  std::vector<int64_t> primary_load_;
  std::vector<int64_t> replica_load_;
};

}  // namespace ppa

#endif  // PPA_RUNTIME_NODE_POOL_H_
