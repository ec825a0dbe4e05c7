#include "obs/trace.h"

namespace ppa {
namespace obs {

std::string_view TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kNodeFailure:
      return "node-failure";
    case TraceEventKind::kTaskFailed:
      return "task-failed";
    case TraceEventKind::kFailureDetected:
      return "failure-detected";
    case TraceEventKind::kCheckpointBegin:
      return "checkpoint-begin";
    case TraceEventKind::kCheckpointEnd:
      return "checkpoint-end";
    case TraceEventKind::kRecoveryStart:
      return "recovery-start";
    case TraceEventKind::kRecoveryDone:
      return "recovery-done";
    case TraceEventKind::kTaskCaughtUp:
      return "task-caught-up";
    case TraceEventKind::kReplicaActivated:
      return "replica-activated";
    case TraceEventKind::kReplicaDeactivated:
      return "replica-deactivated";
    case TraceEventKind::kSinkBatchStable:
      return "sink-batch-stable";
    case TraceEventKind::kSinkBatchTentative:
      return "sink-batch-tentative";
    case TraceEventKind::kTentativeWindowBegin:
      return "tentative-window-begin";
    case TraceEventKind::kTentativeWindowEnd:
      return "tentative-window-end";
    case TraceEventKind::kReconcileDone:
      return "reconcile-done";
    case TraceEventKind::kNodeRevived:
      return "node-revived";
    case TraceEventKind::kRecoveryArbitrated:
      return "recovery-arbitrated";
    case TraceEventKind::kCheckpointSkipped:
      return "checkpoint-skipped";
    case TraceEventKind::kApproxRecovery:
      return "approx-recovery";
    case TraceEventKind::kDivergenceCertified:
      return "divergence-certified";
  }
  return "?";
}

void TraceLog::Record(TimePoint at, TraceEventKind kind, int64_t task,
                      int node, int64_t a, int64_t b) {
  if (!enabled_) {
    return;
  }
  events_.push_back(TraceEvent{at, next_seq_++, kind, task, node, a, b});
}

int64_t TraceLog::CountOf(TraceEventKind kind) const {
  int64_t count = 0;
  for (const TraceEvent& e : events_) {
    count += e.kind == kind ? 1 : 0;
  }
  return count;
}

}  // namespace obs
}  // namespace ppa
