#ifndef PPA_FIDELITY_METRICS_H_
#define PPA_FIDELITY_METRICS_H_

#include <vector>

#include "topology/task_set.h"
#include "topology/topology.h"

namespace ppa {

/// Result of propagating information loss through a topology for a given
/// failure set (Sec. III-A1).
struct InfoLossResult {
  /// Per-task output-stream information loss IL^out in [0, 1]; failed tasks
  /// have loss 1.
  std::vector<double> output_loss;
  /// Output fidelity of the topology (Eq. 4): the rate-weighted complement
  /// of the sink tasks' output loss.
  double output_fidelity = 1.0;
};

/// Controls how multi-stream inputs are combined during loss propagation.
enum class LossModel {
  /// The paper's OF model: honor each operator's InputCorrelation —
  /// correlated-input operators combine losses multiplicatively (Eq. 2),
  /// independent-input operators rate-average them (Eq. 3).
  kOutputFidelity,
  /// The Internal Completeness baseline of [Bellavista et al., EDBT'14] as
  /// characterized in Sec. VI-B: identical propagation except that stream
  /// correlation is ignored — every operator is treated as
  /// independent-input.
  kInternalCompleteness,
};

/// Propagates information loss through `topology` assuming every task in
/// `failed` produces no output, and returns per-task losses plus the output
/// fidelity. Rates are the topology's derived no-failure rates.
[[nodiscard]] InfoLossResult PropagateInfoLoss(
    const Topology& topology, const TaskSet& failed,
    LossModel model = LossModel::kOutputFidelity);

/// Output Fidelity (Eq. 4) under failure set `failed`.
[[nodiscard]] double ComputeOutputFidelity(const Topology& topology,
                                           const TaskSet& failed);

/// Internal Completeness baseline under failure set `failed`.
[[nodiscard]] double ComputeInternalCompleteness(const Topology& topology,
                                                 const TaskSet& failed);

/// The planning objective of Definition 2 (worst-case correlated failure):
/// the output fidelity of the partial topology formed by the actively
/// replicated tasks, i.e. OF with failure set M \ `replicated`.
[[nodiscard]] double PlanOutputFidelity(const Topology& topology,
                                        const TaskSet& replicated);

/// Same objective under the IC metric (used for Fig. 12's comparison).
[[nodiscard]] double PlanInternalCompleteness(const Topology& topology,
                                              const TaskSet& replicated);

/// Output fidelity when only `task` fails (the greedy planner's ranking
/// criterion, Alg. 2).
[[nodiscard]] double SingleFailureOutputFidelity(const Topology& topology,
                                                 TaskId task);

}  // namespace ppa

#endif  // PPA_FIDELITY_METRICS_H_
