#ifndef PPA_PLANNER_STRUCTURE_AWARE_PLANNER_H_
#define PPA_PLANNER_STRUCTURE_AWARE_PLANNER_H_

#include "fidelity/mc_tree.h"
#include "fidelity/metrics.h"
#include "planner/planner.h"

namespace ppa {

/// Options of the structure-aware planner.
struct StructureAwareOptions {
  /// Segment/fallback enumeration bound.
  McTreeEnumOptions mc_tree;
  /// When true (default), leftover budget that no sub-topology planner can
  /// spend on an OF improvement is used to replicate the individually most
  /// damaging remaining tasks anyway (active replicas still shorten their
  /// recovery even when they cannot raise worst-case OF).
  bool fill_budget = true;
  /// Plan-quality metric the search maximizes: the paper's OF, or the IC
  /// baseline (used to reproduce the Fig. 12 comparison).
  LossModel metric = LossModel::kOutputFidelity;
};

/// The structure-aware planner (Algorithm 5): decomposes the topology into
/// full and structured sub-topologies (Sec. IV-C3), plans each with its
/// dedicated incremental planner (Algorithms 3 and 4), and interleaves
/// their expansion steps by profit density — OF gain per replicated task —
/// until the budget is exhausted.
class StructureAwarePlanner : public Planner {
 public:
  explicit StructureAwarePlanner(StructureAwareOptions options = {})
      : options_(options) {}

  std::string_view name() const override { return "sa"; }

  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;

 private:
  StructureAwareOptions options_;
};

}  // namespace ppa

#endif  // PPA_PLANNER_STRUCTURE_AWARE_PLANNER_H_
