#ifndef PPA_RUNTIME_TRACE_METRICS_H_
#define PPA_RUNTIME_TRACE_METRICS_H_

#include <cstddef>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppa {

/// Books the registry entries that are folds of a job's trace (DESIGN.md
/// §8): failure counts, recovery starts and latencies, replica changes,
/// sink output, checkpoint bytes and, when `approx`, the af.* skip and
/// forfeit counters. Folds the events from `*cursor` on in insertion
/// order, then advances `*cursor` past them, so repeated calls book each
/// event once and histogram sums match booking at the recording site.
/// Every entry exists after the first call, zero-valued until an event
/// books it.
void FoldTraceMetrics(const obs::TraceLog& trace, bool approx,
                      size_t* cursor, obs::MetricsRegistry* registry);

}  // namespace ppa

#endif  // PPA_RUNTIME_TRACE_METRICS_H_
