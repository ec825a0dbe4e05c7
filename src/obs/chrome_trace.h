#ifndef PPA_OBS_CHROME_TRACE_H_
#define PPA_OBS_CHROME_TRACE_H_

#include "obs/export.h"
#include "obs/trace.h"
#include "report/json.h"

namespace ppa {
namespace obs {

/// Converts a run's TraceLog into Chrome Trace Event Format JSON,
/// loadable by chrome://tracing and the Perfetto UI. Track mapping: pid 0
/// is the job (control events, tentative windows), pid 1 the cluster
/// with one thread per node, pid 2 the tasks with one thread per task.
/// Trace events become instant events; duration events are views of the
/// trace: each checkpoint (kCheckpointEnd: modeled capture cost ending at
/// its timestamp), each restored recovery episode (BuildRecoveryTimelines:
/// detected -> restored) and each closed tentative window. Timestamps are
/// sim-time microseconds. The output is deterministic: metadata first
/// (ids sorted), then checkpoints and recoveries on the task tracks, then
/// windows, then instants, each in recorded order.
JsonValue ChromeTraceToJson(const TraceLog& trace,
                            const TaskLabeler& labeler = nullptr);

/// A valid Trace Event Format document with no events — what binaries
/// write when asked for a trace but no instrumented job ran.
JsonValue EmptyChromeTrace();

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_CHROME_TRACE_H_
