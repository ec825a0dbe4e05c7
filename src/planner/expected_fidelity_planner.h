#ifndef PPA_PLANNER_EXPECTED_FIDELITY_PLANNER_H_
#define PPA_PLANNER_EXPECTED_FIDELITY_PLANNER_H_

#include <vector>

#include "planner/planner.h"

namespace ppa {

/// Planner for the *independent-failure* objective: maximize the expected
/// output fidelity when at most one task fails, task t with probability
/// `probabilities[t]` (uniform by default). Under that objective the
/// optimal plan is exactly the greedy ranking of Alg. 2 weighted by
/// failure probability — the expected-fidelity gain of replicating t is
/// p_t * (1 - OF(only t fails)), and gains are additive because at most
/// one failure occurs. This planner makes the paper's implicit dichotomy
/// concrete: the structure-agnostic greedy is *optimal* for independent
/// single failures, while the correlated worst case (Definition 2) needs
/// the MC-tree-aware planners.
class ExpectedFidelityPlanner : public Planner {
 public:
  /// Uniform failure probabilities.
  ExpectedFidelityPlanner() = default;
  /// Per-task failure probabilities (validated against the topology at
  /// Plan time).
  explicit ExpectedFidelityPlanner(std::vector<double> probabilities)
      : probabilities_(std::move(probabilities)) {}

  std::string_view name() const override { return "expected"; }

  /// The returned plan's `output_fidelity` is still the worst-case
  /// correlated OF (for comparability across planners); use
  /// ExpectedFidelitySingleFailure() for the objective value.
  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;

 private:
  std::vector<double> probabilities_;
};

}  // namespace ppa

#endif  // PPA_PLANNER_EXPECTED_FIDELITY_PLANNER_H_
