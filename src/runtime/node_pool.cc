#include "runtime/node_pool.h"

#include "common/logging.h"

namespace ppa {

NodePool::NodePool(int num_workers, int num_standbys)
    : num_workers_(num_workers), num_standbys_(num_standbys) {
  PPA_CHECK(num_workers >= 1);
  PPA_CHECK(num_standbys >= 0);
  node_alive_.assign(static_cast<size_t>(num_nodes()), true);
  node_domain_.resize(static_cast<size_t>(num_nodes()));
  for (int node = 0; node < num_nodes(); ++node) {
    node_domain_[static_cast<size_t>(node)] = node;
  }
  primary_load_.assign(static_cast<size_t>(num_nodes()), 0);
  replica_load_.assign(static_cast<size_t>(num_nodes()), 0);
}

bool NodePool::NodeAlive(int node) const {
  PPA_CHECK(node >= 0 && node < num_nodes());
  return node_alive_[static_cast<size_t>(node)];
}

void NodePool::FailNode(int node) {
  PPA_CHECK(node >= 0 && node < num_nodes());
  node_alive_[static_cast<size_t>(node)] = false;
}

void NodePool::ReviveNode(int node) {
  PPA_CHECK(node >= 0 && node < num_nodes());
  node_alive_[static_cast<size_t>(node)] = true;
}

Status NodePool::AssignDomain(int node, int domain) {
  if (node < 0 || node >= num_nodes()) {
    return InvalidArgument("AssignDomain: bad node id");
  }
  node_domain_[static_cast<size_t>(node)] = domain;
  return OkStatus();
}

int NodePool::DomainOf(int node) const {
  PPA_CHECK(node >= 0 && node < num_nodes());
  return node_domain_[static_cast<size_t>(node)];
}

std::vector<int> NodePool::NodesInDomain(int domain) const {
  std::vector<int> nodes;
  for (int node = 0; node < num_nodes(); ++node) {
    if (node_domain_[static_cast<size_t>(node)] == domain) {
      nodes.push_back(node);
    }
  }
  return nodes;
}

int64_t NodePool::PrimaryLoad(int node) const {
  PPA_CHECK(node >= 0 && node < num_nodes());
  return primary_load_[static_cast<size_t>(node)];
}

int64_t NodePool::ReplicaLoad(int node) const {
  PPA_CHECK(node >= 0 && node < num_nodes());
  return replica_load_[static_cast<size_t>(node)];
}

void NodePool::AddPrimaryLoad(int node, int64_t delta) {
  PPA_CHECK(node >= 0 && node < num_nodes());
  primary_load_[static_cast<size_t>(node)] += delta;
  PPA_CHECK(primary_load_[static_cast<size_t>(node)] >= 0);
}

void NodePool::AddReplicaLoad(int node, int64_t delta) {
  PPA_CHECK(node >= 0 && node < num_nodes());
  replica_load_[static_cast<size_t>(node)] += delta;
  PPA_CHECK(replica_load_[static_cast<size_t>(node)] >= 0);
}

}  // namespace ppa
