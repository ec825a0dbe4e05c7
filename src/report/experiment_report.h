#ifndef PPA_REPORT_EXPERIMENT_REPORT_H_
#define PPA_REPORT_EXPERIMENT_REPORT_H_

#include <string>

#include "common/status.h"
#include "planner/replication_plan.h"
#include "report/json.h"
#include "runtime/streaming_job.h"

namespace ppa {

/// JSON rendering of a topology: operators (name, parallelism, correlation,
/// selectivity, per-task rates) and edges.
JsonValue TopologyToJson(const Topology& topology);

/// JSON rendering of a replication plan: replicated task labels, resource
/// usage, and the worst-case OF.
JsonValue PlanToJson(const Topology& topology, const ReplicationPlan& plan);

/// JSON rendering of one recovery report: per-task recovery kind and
/// latency, plus the total/active/passive aggregates.
JsonValue RecoveryReportToJson(const Topology& topology,
                               const RecoveryReport& report);

/// Full job summary: configuration highlights, per-task processing and
/// checkpointing cost, sink-record counts (total/tentative/corrections),
/// and every recovery report. Everything a plotting script needs from one
/// experiment run.
JsonValue JobSummaryToJson(const StreamingJob& job);

/// Observability profile of the run (obs::RunProfileToJson with task ids
/// labeled through the job's topology): metrics snapshot, per-task
/// recovery timelines, tentative-output windows, the OF/IC fidelity
/// timeseries, and the raw trace.
JsonValue JobProfileToJson(const StreamingJob& job);

/// Chrome/Perfetto Trace Event Format rendering of the job's trace
/// (obs::ChromeTraceToJson with topology task labels). Load
/// the written file in chrome://tracing or https://ui.perfetto.dev.
JsonValue JobChromeTraceToJson(const StreamingJob& job);

/// The job's flight record (obs::FlightRecordToJson with topology task
/// labels): the last StreamingJob::kFlightRecorderCapacity trace events,
/// available even when observability is off. The post-mortem attachment
/// of chaos repros and --flight_record_out dumps.
JsonValue JobFlightRecordToJson(const StreamingJob& job);

/// Writes `value` pretty-printed to `path` (truncates). Filesystem errors
/// are returned as Internal.
Status WriteJsonFile(const std::string& path, const JsonValue& value);

}  // namespace ppa

#endif  // PPA_REPORT_EXPERIMENT_REPORT_H_
