#ifndef PPA_PLANNER_DP_PLANNER_H_
#define PPA_PLANNER_DP_PLANNER_H_

#include "fidelity/mc_tree.h"
#include "planner/planner.h"

namespace ppa {

/// Options bounding the exhaustive search of the DP planner.
struct DpOptions {
  /// Passed through to MC-tree enumeration.
  McTreeEnumOptions mc_tree;
  /// Abort with ResourceExhausted once the candidate-plan set exceeds this
  /// size (the algorithm is O(2^T) in the MC-tree count, Sec. IV-A).
  size_t max_candidate_plans = size_t{1} << 22;
};

/// The optimal bottom-up dynamic-programming planner (Algorithm 1).
/// Candidate plans are unions of MC-trees grown one resource unit at a
/// time; a plan is expanded with every MC-tree whose non-replicated task
/// count exactly matches the available headroom, and retired when no
/// remaining tree can absorb the headroom. The best plan by worst-case OF
/// wins (Theorem 1: no plan with the same or lower usage beats it).
class DpPlanner : public Planner {
 public:
  explicit DpPlanner(DpOptions options = {}) : options_(options) {}

  std::string_view name() const override { return "dp"; }

  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;

 private:
  DpOptions options_;
};

}  // namespace ppa

#endif  // PPA_PLANNER_DP_PLANNER_H_
