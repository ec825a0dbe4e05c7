#ifndef PPA_PLANNER_PLANNER_H_
#define PPA_PLANNER_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "fidelity/mc_tree.h"
#include "fidelity/metrics.h"
#include "planner/replication_plan.h"
#include "topology/topology.h"

namespace ppa {

/// One planning request: the topology to protect, the resource budget
/// (number of tasks that may be actively replicated), and the
/// cross-planner execution limits. A value type so experiment specs can
/// carry, store, and replay requests verbatim.
struct PlanRequest {
  PlanRequest() = default;
  /// Convenience for the common call shape. `topology` must outlive the
  /// Plan() call.
  PlanRequest(const Topology& topology_in, int budget_in,
              uint64_t max_search_steps_in = 0)
      : topology(&topology_in),
        budget(budget_in),
        max_search_steps(max_search_steps_in) {}

  /// The topology to plan for. Never owned; must be non-null.
  const Topology* topology = nullptr;

  /// Replication budget. May exceed the task count (it is clamped);
  /// negative is rejected.
  int budget = 0;

  /// Deterministic planning deadline: planners whose search is
  /// super-linear abort with ResourceExhausted once they have considered
  /// this many candidates. 0 keeps each planner's constructor-time cap.
  /// A step budget — not wall-clock — so a request that fits the deadline
  /// on one machine fits it everywhere (reproducibility, DESIGN.md §10).
  /// Planners with polynomial searches (greedy, sa, expected, random)
  /// document that they ignore it.
  uint64_t max_search_steps = 0;
};

/// Validates the request's shape: non-null topology, non-negative budget.
[[nodiscard]] Status ValidatePlanRequest(const PlanRequest& request);

/// Interface of a partially-active-replication planner: given a plan
/// request (topology + budget, Definition 2), produce a plan maximizing
/// worst-case tentative-output fidelity.
class Planner {
 public:
  virtual ~Planner() = default;

  /// Short identifier used in logs and benchmark tables ("dp", "greedy",
  /// "sa").
  virtual std::string_view name() const = 0;

  /// Produces a plan using at most `request.budget` replicated tasks. The
  /// returned plan's `output_fidelity` is always freshly evaluated with
  /// PlanOutputFidelity().
  virtual StatusOr<ReplicationPlan> Plan(const PlanRequest& request) = 0;
};

/// The built-in planner kinds.
enum class PlannerKind {
  kDynamicProgramming,
  kGreedy,
  kStructureAware,
  kExhaustive,
  kRandom,
  kExpectedFidelity,
};

/// Stable short name of a planner kind ("dp", "greedy", "sa",
/// "exhaustive", "random", "expected") — round-trips through
/// PlannerKindFromString.
[[nodiscard]] std::string_view PlannerKindToString(PlannerKind kind);

/// Parses a planner kind from its PlannerKindToString name (also accepts
/// the spelled-out aliases "structure-aware" and "expected-fidelity").
/// InvalidArgument on unknown names, with the valid names in the message.
StatusOr<PlannerKind> PlannerKindFromString(std::string_view name);

/// Cross-planner construction options: the union of every built-in
/// planner's knobs, so ppa_cli and the chaos generator configure any kind
/// through one value type. Each kind reads only its own fields.
struct PlannerOptions {
  /// MC-tree / segment enumeration bound (dp, sa).
  McTreeEnumOptions mc_tree;
  /// Candidate-plan cap of the exponential DP search (dp).
  size_t max_candidate_plans = size_t{1} << 22;
  /// Spend leftover budget on individually damaging tasks (sa).
  bool fill_budget = true;
  /// Plan-quality metric the search maximizes (sa).
  LossModel metric = LossModel::kOutputFidelity;
  /// Task-count ceiling of the exhaustive oracle (exhaustive).
  int exhaustive_max_tasks = 22;
  /// Seed of the uniform-random baseline (random).
  uint64_t seed = 1;
  /// Per-task failure probabilities; empty = uniform (expected).
  std::vector<double> failure_probabilities;
};

/// Creates a planner of the given kind with default options.
std::unique_ptr<Planner> CreatePlanner(PlannerKind kind);

/// Creates a planner of the given kind, configured from the fields of
/// `options` that apply to it.
std::unique_ptr<Planner> CreatePlanner(PlannerKind kind,
                                       const PlannerOptions& options);

}  // namespace ppa

#endif  // PPA_PLANNER_PLANNER_H_
