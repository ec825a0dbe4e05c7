#include "runtime/cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace ppa {

Cluster::Cluster(int num_workers, int num_standbys)
    : pool_(std::make_shared<NodePool>(num_workers, num_standbys)) {}

Cluster::Cluster(std::shared_ptr<NodePool> pool) : pool_(std::move(pool)) {
  PPA_CHECK(pool_ != nullptr);
}

Status Cluster::AssignDomain(int node, int domain) {
  return pool_->AssignDomain(node, domain);
}

int Cluster::DomainOf(int node) const { return pool_->DomainOf(node); }

std::vector<int> Cluster::NodesInDomain(int domain) const {
  return pool_->NodesInDomain(domain);
}

void Cluster::SetConstraints(PlacementConstraints constraints) {
  constraints_ = std::move(constraints);
}

void Cluster::EnsureTask(TaskId task) {
  PPA_CHECK(task >= 0);
  const size_t need = static_cast<size_t>(task) + 1;
  if (primary_node_.size() < need) {
    primary_node_.resize(need, -1);
    replica_node_.resize(need, -1);
  }
}

void Cluster::SetPrimaryNode(TaskId task, int node) {
  EnsureTask(task);
  const int old = primary_node_[static_cast<size_t>(task)];
  if (old == node) {
    return;
  }
  if (old >= 0) {
    pool_->AddPrimaryLoad(old, -1);
  }
  if (node >= 0) {
    pool_->AddPrimaryLoad(node, 1);
  }
  primary_node_[static_cast<size_t>(task)] = node;
}

void Cluster::SetReplicaNode(TaskId task, int node) {
  EnsureTask(task);
  const int old = replica_node_[static_cast<size_t>(task)];
  if (old == node) {
    return;
  }
  if (old >= 0) {
    pool_->AddReplicaLoad(old, -1);
    --placed_replicas_;
  }
  if (node >= 0) {
    pool_->AddReplicaLoad(node, 1);
    ++placed_replicas_;
  }
  replica_node_[static_cast<size_t>(task)] = node;
}

void Cluster::PlacePrimariesRoundRobin(const Topology& topology) {
  for (TaskId t = 0; t < topology.num_tasks(); ++t) {
    if (NodeOfPrimary(t) < 0) {
      SetPrimaryNode(t, t % num_workers());
    }
  }
}

Status Cluster::PlacePrimary(TaskId task, int node) {
  if (node < 0 || node >= num_workers()) {
    return InvalidArgument("PlacePrimary: node is not a worker");
  }
  SetPrimaryNode(task, node);
  return OkStatus();
}

bool Cluster::ReplicaNodeExcluded(int node) const {
  if (!constraints_.replica_affinity.empty() &&
      std::find(constraints_.replica_affinity.begin(),
                constraints_.replica_affinity.end(),
                node) == constraints_.replica_affinity.end()) {
    return true;
  }
  return std::find(constraints_.replica_anti_affinity.begin(),
                   constraints_.replica_anti_affinity.end(),
                   node) != constraints_.replica_anti_affinity.end();
}

int64_t Cluster::ViewReplicasInDomain(int domain) const {
  int64_t count = 0;
  for (int node : replica_node_) {
    if (node >= 0 && pool_->DomainOf(node) == domain) {
      ++count;
    }
  }
  return count;
}

Status Cluster::PlaceReplicaAuto(TaskId task) {
  if (num_standbys() == 0) {
    return FailedPrecondition("no standby nodes for replicas");
  }
  EnsureTask(task);
  if (constraints_.replica_ceiling >= 0 && NodeOfReplica(task) < 0 &&
      placed_replicas_ >= constraints_.replica_ceiling) {
    return ResourceExhausted("replica budget ceiling reached");
  }
  const int primary = NodeOfPrimary(task);
  const int primary_domain = primary >= 0 ? DomainOf(primary) : -1;
  int best_node = -1;
  int64_t best_load = 0;
  int64_t best_domain_load = 0;
  bool best_outside_domain = false;
  // Ascending node-id scan with strictly-better replacement: ties on
  // every criterion break toward the lowest node id (see header).
  for (int node = num_workers(); node < num_nodes(); ++node) {
    if (!NodeAlive(node) || ReplicaNodeExcluded(node)) {
      continue;
    }
    const int64_t load = pool_->ReplicaLoad(node);
    const bool outside = DomainOf(node) != primary_domain;
    const int64_t domain_load =
        constraints_.spread_replicas_across_domains
            ? ViewReplicasInDomain(DomainOf(node))
            : 0;
    // Prefer a node outside the primary's failure domain; within each
    // class, the least-populated failure domain (when spreading), then
    // the globally least-loaded node wins.
    bool better = false;
    if (best_node < 0 || (outside && !best_outside_domain)) {
      better = true;
    } else if (outside == best_outside_domain) {
      if (domain_load != best_domain_load) {
        better = domain_load < best_domain_load;
      } else {
        better = load < best_load;
      }
    }
    if (better) {
      best_node = node;
      best_load = load;
      best_domain_load = domain_load;
      best_outside_domain = outside;
    }
  }
  if (best_node < 0) {
    return ResourceExhausted("no alive standby node available");
  }
  SetReplicaNode(task, best_node);
  return OkStatus();
}

void Cluster::RemoveReplica(TaskId task) {
  if (task >= 0 && static_cast<size_t>(task) < replica_node_.size()) {
    SetReplicaNode(task, -1);
  }
}

Status Cluster::PromoteReplicaToPrimary(TaskId task) {
  const int node = NodeOfReplica(task);
  if (node < 0) {
    return FailedPrecondition("task has no replica placement to promote");
  }
  SetReplicaNode(task, -1);
  SetPrimaryNode(task, node);
  return OkStatus();
}

void Cluster::ReleaseAllPlacements() {
  for (size_t t = 0; t < primary_node_.size(); ++t) {
    SetPrimaryNode(static_cast<TaskId>(t), -1);
    SetReplicaNode(static_cast<TaskId>(t), -1);
  }
}

int Cluster::NodeOfPrimary(TaskId task) const {
  if (task < 0 || static_cast<size_t>(task) >= primary_node_.size()) {
    return -1;
  }
  return primary_node_[static_cast<size_t>(task)];
}

int Cluster::NodeOfReplica(TaskId task) const {
  if (task < 0 || static_cast<size_t>(task) >= replica_node_.size()) {
    return -1;
  }
  return replica_node_[static_cast<size_t>(task)];
}

std::vector<TaskId> Cluster::PrimariesOn(int node) const {
  std::vector<TaskId> tasks;
  for (size_t t = 0; t < primary_node_.size(); ++t) {
    if (primary_node_[t] == node) {
      tasks.push_back(static_cast<TaskId>(t));
    }
  }
  return tasks;
}

std::vector<TaskId> Cluster::ReplicasOn(int node) const {
  std::vector<TaskId> tasks;
  for (size_t t = 0; t < replica_node_.size(); ++t) {
    if (replica_node_[t] == node) {
      tasks.push_back(static_cast<TaskId>(t));
    }
  }
  return tasks;
}

}  // namespace ppa
