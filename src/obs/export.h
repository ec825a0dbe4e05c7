#ifndef PPA_OBS_EXPORT_H_
#define PPA_OBS_EXPORT_H_

#include <functional>
#include <string>

#include "obs/fidelity_timeseries.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/json.h"

namespace ppa {
namespace obs {

/// Resolves a task id to a display label ("mid[1]"); nullptr falls back
/// to the numeric id.
using TaskLabeler = std::function<std::string(int64_t)>;

/// {"count":..,"sum":..,"min":..,"max":..,"mean":..,
///  "p50":..,"p95":..,"p99":..}
JsonValue HistogramToJson(const Histogram& histogram);

/// {"counters":{name:value,...},"gauges":{name:{...}},
///  "histograms":{name:HistogramToJson,...}} in name order.
JsonValue MetricsToJson(const MetricsRegistry& registry);

/// Array of {"t_s":..,"seq":..,"kind":..,"task":..,"node":..,"a":..,
/// "b":..}; tasks labeled through `labeler` when provided.
JsonValue TraceToJson(const TraceLog& trace,
                      const TaskLabeler& labeler = nullptr);

/// Array of per-episode timelines with phase timestamps and latencies.
JsonValue TimelinesToJson(const std::vector<RecoveryTimeline>& timelines,
                          const TaskLabeler& labeler = nullptr);

/// Array of {"begin_s":..,"end_s":..,"first_batch":..,"last_batch":..,
/// "closed":..}.
JsonValue TentativeWindowsToJson(const std::vector<TentativeWindow>& windows);

/// {"capacity":..,"dropped":..,"retained":..} — how much of the run the
/// trace ring actually kept. capacity 0 means unbounded; a non-zero
/// dropped count flags that trace-derived views (timelines, windows) saw
/// a truncated history.
JsonValue TraceStatsToJson(const TraceLog& trace);

/// Array of {"t_s":..,"batch":..,"sink":..,"tentative":..,
/// "output_fidelity":..,"internal_completeness":..,"failed_tasks":..}
/// — the OF(t)/IC(t) curve sampled per degraded sink delivery.
JsonValue FidelityTimeseriesToJson(const FidelityTimeseries& series,
                                   const TaskLabeler& labeler = nullptr);

/// The machine-readable profile of one run: metrics snapshot, recovery
/// timelines and tentative windows derived from the trace, the trace
/// itself, and — when provided — the fidelity timeseries.
JsonValue RunProfileToJson(const MetricsRegistry& registry,
                           const TraceLog& trace,
                           const TaskLabeler& labeler = nullptr,
                           const FidelityTimeseries* fidelity = nullptr);

/// Serializes a flight record — a bounded TraceLog holding the last N
/// events of a run:
/// {"capacity":..,"dropped":..,"recorded":..,"events":[...]} where
/// `recorded` counts every event ever fed to the ring (retained +
/// dropped) and `events` is the retained tail in TraceToJson shape.
/// Contains only sim-time data, so identical runs serialize
/// byte-identically.
JsonValue FlightRecordToJson(const TraceLog& ring,
                             const TaskLabeler& labeler = nullptr);

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_EXPORT_H_
