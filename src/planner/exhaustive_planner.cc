#include "planner/exhaustive_planner.h"

#include <algorithm>

#include "fidelity/metrics.h"

namespace ppa {

StatusOr<ReplicationPlan> ExhaustivePlanner::Plan(
    const PlanRequest& request) {
  PPA_RETURN_IF_ERROR(ValidatePlanRequest(request));
  const Topology& topology = *request.topology;
  const int n = topology.num_tasks();
  if (n > max_tasks_) {
    return ResourceExhausted(
        "exhaustive planner refuses topologies beyond its task cap");
  }
  const int budget = std::min(request.budget, n);

  ReplicationPlan best;
  best.replicated = TaskSet(n);
  best.output_fidelity = PlanOutputFidelity(topology, best.replicated);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if (__builtin_popcountll(mask) > budget) {
      continue;
    }
    TaskSet plan(n);
    for (int i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) {
        plan.Add(static_cast<TaskId>(i));
      }
    }
    const double of = PlanOutputFidelity(topology, plan);
    if (of > best.output_fidelity ||
        (of == best.output_fidelity &&
         plan.size() < best.replicated.size())) {
      best.replicated = std::move(plan);
      best.output_fidelity = of;
    }
  }
  return best;
}

StatusOr<ReplicationPlan> RandomPlanner::Plan(const PlanRequest& request) {
  PPA_RETURN_IF_ERROR(ValidatePlanRequest(request));
  const Topology& topology = *request.topology;
  const int n = topology.num_tasks();
  const int budget = std::min(request.budget, n);
  std::vector<TaskId> tasks(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    tasks[static_cast<size_t>(i)] = static_cast<TaskId>(i);
  }
  Rng rng(seed_);
  rng.Shuffle(&tasks);
  ReplicationPlan plan;
  plan.replicated = TaskSet(n);
  for (int i = 0; i < budget; ++i) {
    plan.replicated.Add(tasks[static_cast<size_t>(i)]);
  }
  plan.output_fidelity = PlanOutputFidelity(topology, plan.replicated);
  return plan;
}

}  // namespace ppa
