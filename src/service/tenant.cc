#include "service/tenant.h"

#include <set>

#include "topology/serialize.h"

namespace ppa {
namespace service {

std::string_view TenantPhaseToString(TenantPhase phase) {
  switch (phase) {
    case TenantPhase::kQueued:
      return "queued";
    case TenantPhase::kRunning:
      return "running";
    case TenantPhase::kDegraded:
      return "degraded";
    case TenantPhase::kEvicted:
      return "evicted";
  }
  return "?";
}

StatusOr<Topology> ValidateTenantSpec(const TenantSpec& spec) {
  PPA_ASSIGN_OR_RETURN(Topology topology,
                       ParseTopologySpec(spec.topology_spec));
  PPA_RETURN_IF_ERROR(spec.config.Validate());
  if (spec.replica_budget < 0) {
    return InvalidArgument("replica_budget must be >= 0");
  }
  if (spec.priority < 0) {
    return InvalidArgument("priority must be >= 0");
  }
  std::set<TaskId> seen;
  for (TaskId t : spec.initial_plan) {
    if (t < 0 || t >= topology.num_tasks()) {
      return InvalidArgument("initial_plan task out of range");
    }
    if (!seen.insert(t).second) {
      return InvalidArgument("initial_plan lists a task twice");
    }
  }
  if (static_cast<int>(spec.initial_plan.size()) > spec.replica_budget) {
    return InvalidArgument("initial_plan exceeds replica_budget");
  }
  switch (spec.config.ft_mode) {
    case FtMode::kPpa:
      break;
    case FtMode::kActiveReplication:
      if (spec.replica_budget < topology.num_tasks()) {
        return InvalidArgument(
            "active replication needs replica_budget >= num_tasks");
      }
      break;
    case FtMode::kCheckpoint:
    case FtMode::kSourceReplay:
      if (!spec.initial_plan.empty()) {
        return InvalidArgument(
            "initial_plan requires ppa or active-replication ft_mode");
      }
      break;
  }
  return topology;
}

}  // namespace service
}  // namespace ppa
