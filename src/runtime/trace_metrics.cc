#include "runtime/trace_metrics.h"

#include <iterator>
#include <string_view>

#include "common/sim_time.h"
#include "ft/recovery_model.h"

namespace ppa {
namespace {

using K = obs::TraceEventKind;

/// What a matching event adds: a counter gets one, `a` or `b`; a
/// histogram records `a`, or `b` microseconds in seconds.
enum Fold : uint8_t { kOne, kA, kB, kHistogramA, kHistogramSeconds };
/// Which `recovery-start` events a row takes, by their RecoveryKind `a`.
enum Only : uint8_t { kAll, kActive, kPassive };

struct Row {
  std::string_view name;
  K kind;
  Fold fold;
  Only only = kAll;
};

/// The af.* rows exist only under approximate recovery (DESIGN.md §17).
constexpr Row kRows[] = {
    {"job.node_failures", K::kNodeFailure, kOne},
    {"job.task_failures", K::kTaskFailed, kOne},
    {"job.replica_activations", K::kReplicaActivated, kOne},
    {"job.replica_deactivations", K::kReplicaDeactivated, kOne},
    {"recovery.active_started", K::kRecoveryStart, kOne, kActive},
    {"recovery.passive_started", K::kRecoveryStart, kOne, kPassive},
    {"recovery.latency_s", K::kRecoveryStart, kHistogramSeconds},
    {"recovery.active_latency_s", K::kRecoveryStart, kHistogramSeconds,
     kActive},
    {"recovery.passive_latency_s", K::kRecoveryStart, kHistogramSeconds,
     kPassive},
    {"sink.records", K::kSinkBatchStable, kB},
    {"sink.records", K::kSinkBatchTentative, kB},
    {"sink.tentative_records", K::kSinkBatchTentative, kB},
    {"checkpoint.bytes", K::kCheckpointEnd, kHistogramA},
    {"af.checkpoints_skipped", K::kCheckpointSkipped, kOne},
    {"af.forfeited_records", K::kDivergenceCertified, kA},
};
constexpr size_t kNumRows = std::size(kRows);

}  // namespace

void FoldTraceMetrics(const obs::TraceLog& trace, bool approx,
                      size_t* cursor, obs::MetricsRegistry* registry) {
  // Each row gets one handle; the other stays null, so booking it below
  // is a no-op.
  obs::Counter* counters[kNumRows] = {};
  obs::Histogram* histograms[kNumRows] = {};
  for (size_t i = 0; i < kNumRows; ++i) {
    if (!approx && kRows[i].name.starts_with("af.")) {
      continue;
    }
    if (kRows[i].fold >= kHistogramA) {
      histograms[i] = registry->histogram(kRows[i].name);
    } else {
      counters[i] = registry->counter(kRows[i].name);
    }
  }
  const auto& events = trace.events();
  for (; *cursor < events.size(); ++*cursor) {
    const obs::TraceEvent& e = events[*cursor];
    const Only recovery =
        e.a == static_cast<int64_t>(RecoveryKind::kActiveReplica) ? kActive
                                                                  : kPassive;
    for (size_t i = 0; i < kNumRows; ++i) {
      const Row& row = kRows[i];
      if (row.kind != e.kind || (row.only != kAll && row.only != recovery)) {
        continue;
      }
      obs::Add(counters[i], row.fold == kOne ? 1 : row.fold == kA ? e.a : e.b);
      obs::Observe(histograms[i], row.fold == kHistogramA
                                      ? static_cast<double>(e.a)
                                      : Duration::Micros(e.b).seconds());
    }
  }
}

}  // namespace ppa
