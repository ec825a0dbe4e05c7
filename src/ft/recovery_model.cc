#include "ft/recovery_model.h"

#include <algorithm>

#include "common/logging.h"

namespace ppa {

Duration RecoverySchedule::MaxLatency() const {
  Duration max = Duration::Zero();
  for (const auto& [task, d] : completion) {
    (void)task;
    max = std::max(max, d);
  }
  return max;
}

RecoverySchedule ComputeRecoverySchedule(
    const Topology& topology, const std::vector<TaskRecoverySpec>& specs,
    const RecoveryCostModel& model) {
  RecoverySchedule schedule;
  std::map<TaskId, const TaskRecoverySpec*> by_task;
  for (const TaskRecoverySpec& spec : specs) {
    by_task[spec.task] = &spec;
  }
  auto seconds = [](double s) { return Duration::Seconds(s); };

  // Process tasks in topological order of their operators so that failed
  // upstream completion times are known before downstream ones.
  for (OperatorId op_id : topology.topo_order()) {
    for (TaskId t : topology.op(op_id).tasks) {
      auto it = by_task.find(t);
      if (it == by_task.end()) {
        continue;
      }
      const TaskRecoverySpec& spec = *it->second;
      Duration complete = Duration::Zero();
      switch (spec.kind) {
        case RecoveryKind::kActiveReplica: {
          complete = model.replica_activation_delay +
                     seconds(static_cast<double>(spec.resend_tuples) /
                             model.replica_resend_rate_tuples_per_sec);
          break;
        }
        case RecoveryKind::kCheckpoint:
        case RecoveryKind::kSourceReplay: {
          Duration base = model.task_restart_delay;
          if (spec.kind == RecoveryKind::kCheckpoint) {
            base += seconds(static_cast<double>(spec.state_tuples) /
                            model.state_load_rate_tuples_per_sec);
          }
          // Synchronization with failed upstream neighbours: replay can
          // only start when their data is reproduced.
          Duration upstream_ready = Duration::Zero();
          for (int si : topology.task(t).in_substreams) {
            const Substream& s = topology.substreams()[si];
            auto up = schedule.completion.find(s.from);
            if (up != schedule.completion.end()) {
              upstream_ready = std::max(
                  upstream_ready, up->second + model.sync_handshake_delay);
            }
          }
          complete = std::max(base, upstream_ready) +
                     seconds(static_cast<double>(spec.replay_tuples) /
                             model.replay_rate_tuples_per_sec);
          break;
        }
      }
      schedule.completion[t] = complete;
    }
  }
  PPA_CHECK(schedule.completion.size() == specs.size())
      << "duplicate or unknown tasks in recovery specs";
  return schedule;
}

}  // namespace ppa
