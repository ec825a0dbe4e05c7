#ifndef PPA_OBS_TRACE_H_
#define PPA_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string_view>

#include "common/sim_time.h"

namespace ppa {
namespace obs {

/// Structured sim-time events recorded by the runtime. Payload fields `a`
/// and `b` are kind-specific (documented per enumerator) so an event is
/// five words and recording never allocates per event beyond the log's
/// growth.
enum class TraceEventKind : uint8_t {
  /// A cluster node was killed. node = node id, a = primaries lost.
  kNodeFailure,
  /// A primary task copy died. task, node = hosting node.
  kTaskFailed,
  /// The master's heartbeat check noticed outstanding failures.
  /// a = failed tasks covered by this detection.
  kFailureDetected,
  /// A checkpoint was initiated. task, a = next_batch it covers.
  kCheckpointBegin,
  /// The checkpoint finished (modeled CPU cost later than begin).
  /// task, a = serialized bytes, b = modeled duration in microseconds.
  kCheckpointEnd,
  /// Recovery of one failed task was scheduled at detection.
  /// task, a = RecoveryKind as int, b = scheduled latency in micros.
  kRecoveryStart,
  /// The task is restored (replica promoted / checkpoint loaded +
  /// replayed). task, a = RecoveryKind as int.
  kRecoveryDone,
  /// A recovered task reprocessed its backlog up to the live batch
  /// frontier. task, a = frontier batch.
  kTaskCaughtUp,
  /// An active replica was created (initial placement or plan change).
  /// task, node = standby node.
  kReplicaActivated,
  /// An active replica left the plan. task.
  kReplicaDeactivated,
  /// A sink task delivered a batch of stable output to the user.
  /// task, a = batch index, b = tuple count.
  kSinkBatchStable,
  /// Same, but produced while part of the topology was failed (Sec. V-B
  /// tentative output). task, a = batch index, b = tuple count.
  kSinkBatchTentative,
  /// First tentative output of a degraded period. a = batch index.
  kTentativeWindowBegin,
  /// First stable output after every task recovered closed the degraded
  /// period. a = the window's last tentative batch.
  kTentativeWindowEnd,
  /// Tentative outputs were reconciled. a = missed outputs,
  /// b = spurious outputs.
  kReconcileDone,
  /// A previously failed cluster node came back. node = node id.
  kNodeRevived,
  /// The cross-job recovery arbiter (src/service) held this job's
  /// recovery behind higher-ranked tenants. a = hold in microseconds,
  /// b = failed tasks covered by the held detection.
  kRecoveryArbitrated,
  /// A due checkpoint was skipped under approximate fault tolerance
  /// (DESIGN.md §17): the error budget certified the drift, no blob was
  /// persisted, and upstream buffers may trim as if it had been taken.
  /// task, a = next_batch the skip covers, b = unpersisted records.
  kCheckpointSkipped,
  /// A task recovered from a thinned chain: restored the persisted
  /// coverage and fast-forwarded over the certified gap instead of
  /// replaying it. task, a = restored (persisted) batch, b = resumed
  /// (thinned-frontier) batch.
  kApproxRecovery,
  /// The divergence certificate of an approximate recovery. task,
  /// a = forfeited records, b = certified output-loss bound in
  /// parts-per-million.
  kDivergenceCertified,
};

/// Stable wire/name of a trace event kind (e.g. "node-failure").
std::string_view TraceEventKindToString(TraceEventKind kind);

/// One record of the append-only sim-time trace log.
struct TraceEvent {
  TimePoint at;
  /// Insertion sequence: total order even among same-instant events.
  uint64_t seq = 0;
  TraceEventKind kind = TraceEventKind::kNodeFailure;
  int64_t task = -1;
  int node = -1;
  int64_t a = 0;
  int64_t b = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// Append-only log of sim-time trace events. Events carry the insertion
/// sequence number, so two events recorded at the same instant keep their
/// causal order (mirroring the event loop's same-instant FIFO guarantee).
/// Disabled logs drop events at the recording site. The log is
/// unbounded; a std::deque grows without reallocating what it holds.
class TraceLog {
 public:
  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Record(TimePoint at, TraceEventKind kind, int64_t task = -1,
              int node = -1, int64_t a = 0, int64_t b = 0);

  const std::deque<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  int64_t CountOf(TraceEventKind kind) const;

 private:
  bool enabled_ = true;
  uint64_t next_seq_ = 0;
  std::deque<TraceEvent> events_;
};

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_TRACE_H_
