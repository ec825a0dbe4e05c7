#ifndef PPA_WORKLOADS_SYNTHETIC_RECOVERY_H_
#define PPA_WORKLOADS_SYNTHETIC_RECOVERY_H_

#include <memory>

#include "common/status_or.h"
#include "engine/operator.h"
#include "runtime/config.h"
#include "runtime/streaming_job.h"
#include "topology/topology.h"

namespace ppa {

/// The synthetic recovery-efficiency workload of Sec. VI-A (Fig. 6): one
/// source operator with 16 tasks feeding a chain of 4 sliding-window
/// operators with parallelism 8/4/2/1 via merge partitioning (each task
/// drains two upstream tasks). Every synthetic operator keeps a sliding
/// window of `window_batches` batches (1-second sliding step) and has
/// selectivity 0.5.
struct SyntheticRecoveryWorkload {
  Topology topo;
  OperatorId source = kInvalidOperatorId;
  OperatorId o1 = kInvalidOperatorId;
  OperatorId o2 = kInvalidOperatorId;
  OperatorId o3 = kInvalidOperatorId;
  OperatorId o4 = kInvalidOperatorId;
  /// Per-source-task tuple rate (the paper's 1000 / 2000 tuples/s).
  double rate_per_source_task = 1000.0;
  int64_t window_batches = 10;
};

/// Builds the Fig. 6 topology.
StatusOr<SyntheticRecoveryWorkload> MakeSyntheticRecoveryWorkload(
    double rate_per_source_task, int64_t window_batches);

/// Binds sources and operators of the workload on `job` (which must have
/// been constructed from workload.topo).
Status BindSyntheticRecoveryWorkload(const SyntheticRecoveryWorkload& workload,
                                     StreamingJob* job);

/// Deterministic uniform-key source used by the synthetic workload: task
/// `i` emits `tuples_per_batch` tuples per batch with keys drawn from a
/// fixed population, reproducible per (task, batch). Keys are copied from
/// the shared "k" table of the key space (NumberedKeys); `key_space < 1`
/// is fatal.
class SyntheticSource : public SourceFunction {
 public:
  SyntheticSource(int64_t tuples_per_batch, int key_space, uint64_t seed);

  std::vector<Tuple> NextBatch(int64_t batch_index, int task_index) override;

 private:
  int64_t tuples_per_batch_;
  int key_space_;
  uint64_t seed_;
  const TupleKey* keys_;
};

/// Binds the generic workload ppa_cli uses: deterministic synthetic
/// sources at each source operator's spec rate, sliding-window aggregates
/// (window = config.window_batches, the operator's spec selectivity)
/// everywhere else.
[[nodiscard]] Status BindGenericWorkload(const Topology& topology,
                                         const JobConfig& config,
                                         StreamingJob* job);

/// Places the workload the way the paper does: 16 source tasks on 4 nodes
/// (4 each), the 15 synthetic tasks on 15 dedicated nodes (1 each). The
/// job's cluster must have at least 19 worker nodes. Returns the list of
/// the 15 nodes hosting synthetic tasks (the correlated-failure targets).
StatusOr<std::vector<int>> PlaceSyntheticRecoveryWorkload(
    const SyntheticRecoveryWorkload& workload, StreamingJob* job);

}  // namespace ppa

#endif  // PPA_WORKLOADS_SYNTHETIC_RECOVERY_H_
