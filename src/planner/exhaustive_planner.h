#ifndef PPA_PLANNER_EXHAUSTIVE_PLANNER_H_
#define PPA_PLANNER_EXHAUSTIVE_PLANNER_H_

#include "common/random.h"
#include "planner/planner.h"

namespace ppa {

/// Ground-truth planner: enumerates every task subset of size <= budget
/// and keeps the best by worst-case OF. O(2^tasks) — refuses topologies
/// with more than `max_tasks` tasks. Exists as an oracle for tests and for
/// validating the DP planner (which must match it exactly).
class ExhaustivePlanner : public Planner {
 public:
  explicit ExhaustivePlanner(int max_tasks = 22) : max_tasks_(max_tasks) {}

  std::string_view name() const override { return "exhaustive"; }

  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;

 private:
  int max_tasks_;
};

/// Uniform-random baseline: replicates `budget` tasks drawn uniformly
/// without replacement. The floor every informed planner must beat in
/// benchmarks; deterministic for a given seed.
class RandomPlanner : public Planner {
 public:
  explicit RandomPlanner(uint64_t seed = 1) : seed_(seed) {}

  std::string_view name() const override { return "random"; }

  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;

 private:
  uint64_t seed_;
};

}  // namespace ppa

#endif  // PPA_PLANNER_EXHAUSTIVE_PLANNER_H_
