#include "planner/planner.h"

#include "planner/dp_planner.h"
#include "planner/exhaustive_planner.h"
#include "planner/expected_fidelity_planner.h"
#include "planner/greedy_planner.h"
#include "planner/structure_aware_planner.h"

namespace ppa {

Status ValidatePlanRequest(const PlanRequest& request) {
  if (request.topology == nullptr) {
    return InvalidArgument("plan request has no topology");
  }
  if (request.budget < 0) {
    return InvalidArgument("budget must be non-negative");
  }
  return OkStatus();
}

std::string_view PlannerKindToString(PlannerKind kind) {
  switch (kind) {
    case PlannerKind::kDynamicProgramming:
      return "dp";
    case PlannerKind::kGreedy:
      return "greedy";
    case PlannerKind::kStructureAware:
      return "sa";
    case PlannerKind::kExhaustive:
      return "exhaustive";
    case PlannerKind::kRandom:
      return "random";
    case PlannerKind::kExpectedFidelity:
      return "expected";
  }
  return "?";
}

StatusOr<PlannerKind> PlannerKindFromString(std::string_view name) {
  if (name == "dp") {
    return PlannerKind::kDynamicProgramming;
  }
  if (name == "greedy") {
    return PlannerKind::kGreedy;
  }
  if (name == "sa" || name == "structure-aware") {
    return PlannerKind::kStructureAware;
  }
  if (name == "exhaustive") {
    return PlannerKind::kExhaustive;
  }
  if (name == "random") {
    return PlannerKind::kRandom;
  }
  if (name == "expected" || name == "expected-fidelity") {
    return PlannerKind::kExpectedFidelity;
  }
  return InvalidArgument("unknown planner '" + std::string(name) +
                         "' (expected dp|greedy|sa|exhaustive|random|"
                         "expected)");
}

std::unique_ptr<Planner> CreatePlanner(PlannerKind kind, uint64_t seed) {
  switch (kind) {
    case PlannerKind::kDynamicProgramming:
      return std::make_unique<DpPlanner>();
    case PlannerKind::kGreedy:
      return std::make_unique<GreedyPlanner>();
    case PlannerKind::kStructureAware:
      return std::make_unique<StructureAwarePlanner>();
    case PlannerKind::kExhaustive:
      return std::make_unique<ExhaustivePlanner>();
    case PlannerKind::kRandom:
      return std::make_unique<RandomPlanner>(seed);
    case PlannerKind::kExpectedFidelity:
      return std::make_unique<ExpectedFidelityPlanner>();
  }
  return nullptr;
}

}  // namespace ppa
