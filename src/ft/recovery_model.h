#ifndef PPA_FT_RECOVERY_MODEL_H_
#define PPA_FT_RECOVERY_MODEL_H_

#include <map>
#include <vector>

#include "common/sim_time.h"
#include "topology/topology.h"

namespace ppa {

/// Cost parameters of the recovery latency model. The model translates the
/// *amount of work* a recovery needs (tuples to replay, state to load,
/// synchronization hops) into virtual time; see DESIGN.md Sec. 3.1 for why
/// this substitution preserves the shape of the paper's Figures 7-10.
struct RecoveryCostModel {
  /// Rate at which a recovering task reprocesses replayed tuples.
  double replay_rate_tuples_per_sec = 50000.0;
  /// Rate at which a checkpoint's state is deserialized/loaded.
  double state_load_rate_tuples_per_sec = 200000.0;
  /// Scheduling/launch delay of restarting a task on a standby node.
  Duration task_restart_delay = Duration::Millis(800);
  /// Delay for an active replica to be promoted and re-subscribed.
  Duration replica_activation_delay = Duration::Millis(200);
  /// Per-upstream-dependency synchronization handshake during correlated
  /// recovery (Sec. V-B: neighbouring recoveries must synchronize).
  Duration sync_handshake_delay = Duration::Millis(250);
  /// Rate at which a promoted replica drains its buffered output to the
  /// downstream subscribers.
  double replica_resend_rate_tuples_per_sec = 100000.0;
};

/// How one failed task is recovered.
enum class RecoveryKind {
  /// Promote the task's active replica (PPA active part / pure active).
  kActiveReplica,
  /// Restore the latest checkpoint and replay upstream buffers (PPA
  /// passive part / pure checkpoint).
  kCheckpoint,
  /// Storm-style: rebuild from scratch by replaying source data through
  /// the topology.
  kSourceReplay,
};

/// Work description of one failed task's recovery.
struct TaskRecoverySpec {
  TaskId task = kInvalidTaskId;
  RecoveryKind kind = RecoveryKind::kCheckpoint;
  /// kCheckpoint/kSourceReplay: tuples this task must reprocess.
  int64_t replay_tuples = 0;
  /// kCheckpoint: tuples of operator state to load from the checkpoint.
  int64_t state_tuples = 0;
  /// kActiveReplica: buffered output tuples to resend downstream.
  int64_t resend_tuples = 0;
};

/// Per-task recovery completion offsets (relative to failure detection).
struct RecoverySchedule {
  std::map<TaskId, Duration> completion;

  /// Latest completion among all tasks (the paper's "recovery latency" of
  /// the failure as a whole). Zero if no task failed.
  [[nodiscard]] Duration MaxLatency() const;
};

/// Computes recovery completion offsets for a set of simultaneously failed
/// tasks. The cascade honours synchronization: a checkpoint/source-replay
/// recovery can only replay once every *failed* upstream neighbour has
/// caught up, so
///   complete(t) = max(base(t), max over failed upstream u of
///                     complete(u) + sync_handshake) + replay_time(t)
/// with base(t) = restart_delay + state_load(t). Active-replica promotions
/// do not depend on upstream recovery (the replica is already caught up):
///   complete(t) = activation_delay + resend_time(t).
[[nodiscard]] RecoverySchedule ComputeRecoverySchedule(
    const Topology& topology, const std::vector<TaskRecoverySpec>& specs,
    const RecoveryCostModel& model);

}  // namespace ppa

#endif  // PPA_FT_RECOVERY_MODEL_H_
