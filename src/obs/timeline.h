#ifndef PPA_OBS_TIMELINE_H_
#define PPA_OBS_TIMELINE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "obs/trace.h"

namespace ppa {
namespace obs {

/// One task's passage through the paper's recovery phases, derived from
/// the trace: failed -> detected (recovery scheduled) -> restored
/// (replica promoted / checkpoint restored + replayed) -> caught up with
/// the live batch frontier. A task that fails repeatedly yields one
/// timeline per episode.
struct RecoveryTimeline {
  int64_t task = -1;
  /// ppa::RecoveryKind as int (obs stays below ft in the layering);
  /// -1 until recovery is scheduled.
  int64_t recovery_kind = -1;
  TimePoint failed_at;
  TimePoint detected_at;
  TimePoint restored_at;
  TimePoint caught_up_at;
  bool detected = false;
  bool restored = false;
  bool caught_up = false;

  /// Approximate-recovery certificate (kDivergenceCertified /
  /// kApproxRecovery within this episode); inert for exact recoveries.
  bool approx = false;
  /// Records the thinned gap forfeited instead of replayed.
  int64_t forfeited_records = 0;
  /// Certified per-batch output-loss bound, in [0, 1].
  double certified_loss = 0.0;

  /// Failure to restoration; zero while incomplete.
  Duration RestoreLatency() const {
    return restored ? restored_at - failed_at : Duration::Zero();
  }
  /// Detection to restoration (the paper's recovery latency); zero while
  /// incomplete.
  Duration RecoveryLatency() const {
    return restored && detected ? restored_at - detected_at
                                : Duration::Zero();
  }
};

/// A span of degraded output: from the first tentative sink batch to the
/// first stable sink batch after every task recovered (open if the run
/// ended while degraded).
struct TentativeWindow {
  TimePoint begin;
  TimePoint end;
  int64_t first_batch = -1;
  /// Batch of the closing stable emission; -1 while open.
  int64_t last_batch = -1;
  bool closed = false;
};

/// One point of the OF(t)/IC(t) curve behind fig08/fig10's end-of-run
/// scalar: the paper's closed-form metrics evaluated against the primary
/// tasks failed when a sink delivered a batch during a tentative window.
/// The runtime derives the series from the trace (DESIGN.md §8.3); obs
/// only defines and serializes it.
struct FidelitySample {
  TimePoint at;
  /// Batch index the sink delivered.
  int64_t batch = -1;
  /// Sink task that delivered it.
  int64_t sink_task = -1;
  /// Whether that delivery was flagged tentative.
  bool tentative = false;
  /// Output fidelity (Eq. 4) of the current failure set.
  double output_fidelity = 1.0;
  /// Internal completeness of the current failure set.
  double internal_completeness = 1.0;
  /// Number of failed (not yet restored) primary tasks.
  int64_t failed_tasks = 0;

  bool operator==(const FidelitySample&) const = default;
};

/// Scans the trace in order and folds kTaskFailed / kRecoveryStart /
/// kRecoveryDone / kTaskCaughtUp into per-episode timelines, ordered by
/// failure time (insertion order for ties).
std::vector<RecoveryTimeline> BuildRecoveryTimelines(const TraceLog& trace);

/// Pairs kTentativeWindowBegin / kTentativeWindowEnd events into windows.
std::vector<TentativeWindow> ExtractTentativeWindows(const TraceLog& trace);

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_TIMELINE_H_
