#include "planner/dp_planner.h"

#include <algorithm>
#include <set>
#include <vector>

#include "fidelity/metrics.h"

namespace ppa {

StatusOr<ReplicationPlan> DpPlanner::Plan(const PlanRequest& request) {
  PPA_RETURN_IF_ERROR(ValidatePlanRequest(request));
  const Topology& topology = *request.topology;
  const int n = topology.num_tasks();
  const int budget = std::min(request.budget, n);

  PPA_ASSIGN_OR_RETURN(std::vector<TaskSet> trees,
                       EnumerateMcTrees(topology, options_.mc_tree));

  // Open plans, still eligible for expansion; closed plans are complete
  // candidates whose every useful expansion has already been enumerated.
  std::set<TaskSet> open;
  std::vector<TaskSet> closed;
  open.insert(TaskSet(n));

  for (int usage = 1; usage <= budget; ++usage) {
    std::vector<TaskSet> to_add;
    std::vector<TaskSet> to_remove;
    for (const TaskSet& plan : open) {
      const int dif = usage - plan.size();
      // Number of non-replicated tasks per not-yet-contained MC-tree.
      int max_nonrep = 0;
      for (const TaskSet& tree : trees) {
        const int nonrep = plan.CountMissing(tree);
        max_nonrep = std::max(max_nonrep, nonrep);
        if (nonrep == dif) {
          TaskSet expanded = plan;
          expanded.UnionWith(tree);
          to_add.push_back(std::move(expanded));
        }
      }
      if (dif >= max_nonrep) {
        // No remaining tree can absorb a larger headroom at later
        // iterations; the plan is final (Alg. 1 line 12).
        to_remove.push_back(plan);
      }
    }
    for (const TaskSet& plan : to_remove) {
      open.erase(plan);
      closed.push_back(plan);
    }
    for (TaskSet& plan : to_add) {
      open.insert(std::move(plan));
    }
    if (open.size() + closed.size() > options_.max_candidate_plans) {
      return ResourceExhausted("DP planner candidate set exceeded limit");
    }
  }

  ReplicationPlan best;
  best.replicated = TaskSet(n);
  best.output_fidelity = PlanOutputFidelity(topology, best.replicated);
  auto consider = [&](const TaskSet& plan) {
    const double of = PlanOutputFidelity(topology, plan);
    if (of > best.output_fidelity ||
        (of == best.output_fidelity &&
         plan.size() < best.replicated.size())) {
      best.replicated = plan;
      best.output_fidelity = of;
    }
  };
  for (const TaskSet& plan : open) {
    consider(plan);
  }
  for (const TaskSet& plan : closed) {
    consider(plan);
  }
  return best;
}

}  // namespace ppa
