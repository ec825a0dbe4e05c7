#ifndef PPA_PLANNER_PLANNER_H_
#define PPA_PLANNER_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/status_or.h"
#include "planner/replication_plan.h"
#include "topology/topology.h"

namespace ppa {

/// One planning request: the topology to protect and the resource budget
/// (number of tasks that may be actively replicated), Definition 2.
struct PlanRequest {
  PlanRequest() = default;
  /// Convenience for the common call shape. `topology` must outlive the
  /// Plan() call.
  PlanRequest(const Topology& topology_in, int budget_in)
      : topology(&topology_in), budget(budget_in) {}

  /// The topology to plan for. Never owned; must be non-null.
  const Topology* topology = nullptr;

  /// Replication budget. May exceed the task count (it is clamped);
  /// negative is rejected.
  int budget = 0;
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

/// Creates a planner of the given kind with its default options. `seed`
/// seeds the uniform-random baseline (random); every other kind ignores
/// it. Callers that need a non-default option construct the planner
/// class directly.
std::unique_ptr<Planner> CreatePlanner(PlannerKind kind, uint64_t seed = 1);

}  // namespace ppa

#endif  // PPA_PLANNER_PLANNER_H_
