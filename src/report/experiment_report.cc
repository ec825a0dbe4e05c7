#include "report/experiment_report.h"

#include <cstdio>

#include "obs/chrome_trace.h"
#include "obs/export.h"

namespace ppa {

JsonValue TopologyToJson(const Topology& topology) {
  JsonValue root = JsonValue::Object();
  JsonValue operators = JsonValue::Array();
  for (const OperatorInfo& oi : topology.operators()) {
    JsonValue op = JsonValue::Object();
    op.Set("name", oi.name)
        .Set("parallelism", oi.parallelism)
        .Set("correlation",
             std::string(InputCorrelationToString(oi.correlation)))
        .Set("selectivity", oi.selectivity);
    JsonValue rates = JsonValue::Array();
    for (TaskId t : oi.tasks) {
      rates.Append(topology.task(t).output_rate);
    }
    op.Set("task_output_rates", std::move(rates));
    operators.Append(std::move(op));
  }
  root.Set("operators", std::move(operators));
  JsonValue edges = JsonValue::Array();
  for (const StreamEdge& e : topology.edges()) {
    JsonValue edge = JsonValue::Object();
    edge.Set("from", topology.op(e.from).name)
        .Set("to", topology.op(e.to).name)
        .Set("scheme", std::string(PartitionSchemeToString(e.scheme)));
    edges.Append(std::move(edge));
  }
  root.Set("edges", std::move(edges));
  root.Set("num_tasks", topology.num_tasks());
  return root;
}

JsonValue PlanToJson(const Topology& topology, const ReplicationPlan& plan) {
  JsonValue root = JsonValue::Object();
  root.Set("resource_usage", plan.resource_usage());
  root.Set("output_fidelity", plan.output_fidelity);
  JsonValue tasks = JsonValue::Array();
  for (TaskId t : plan.replicated.ToVector()) {
    tasks.Append(topology.TaskLabel(t));
  }
  root.Set("replicated_tasks", std::move(tasks));
  return root;
}

JsonValue RecoveryReportToJson(const Topology& topology,
                               const RecoveryReport& report) {
  JsonValue root = JsonValue::Object();
  root.Set("failure_time_s", report.failure_time.seconds());
  root.Set("detection_time_s", report.detection_time.seconds());
  root.Set("total_latency_s", report.TotalLatency().seconds());
  root.Set("active_latency_s", report.ActiveLatency().seconds());
  root.Set("passive_latency_s", report.PassiveLatency().seconds());
  JsonValue tasks = JsonValue::Array();
  for (const TaskRecoverySpec& spec : report.specs) {
    JsonValue entry = JsonValue::Object();
    entry.Set("task", topology.TaskLabel(spec.task));
    switch (spec.kind) {
      case RecoveryKind::kActiveReplica:
        entry.Set("kind", "active-replica");
        entry.Set("resend_tuples", spec.resend_tuples);
        break;
      case RecoveryKind::kCheckpoint:
        entry.Set("kind", "checkpoint");
        entry.Set("state_tuples", spec.state_tuples);
        entry.Set("replay_tuples", spec.replay_tuples);
        break;
      case RecoveryKind::kSourceReplay:
        entry.Set("kind", "source-replay");
        entry.Set("replay_tuples", spec.replay_tuples);
        break;
    }
    auto it = report.schedule.completion.find(spec.task);
    if (it != report.schedule.completion.end()) {
      entry.Set("latency_s", it->second.seconds());
    }
    tasks.Append(std::move(entry));
  }
  root.Set("tasks", std::move(tasks));
  return root;
}

JsonValue JobSummaryToJson(const StreamingJob& job) {
  const Topology& topology = job.topology();
  JsonValue root = JsonValue::Object();
  root.Set("ft_mode", std::string(FtModeToString(job.config().ft_mode)));
  root.Set("batch_interval_s", job.config().batch_interval.seconds());
  root.Set("checkpoint_interval_s",
           job.config().checkpoint_interval.seconds());
  root.Set("frontier_batch", job.frontier());
  root.Set("topology", TopologyToJson(topology));

  JsonValue tasks = JsonValue::Array();
  for (TaskId t = 0; t < topology.num_tasks(); ++t) {
    JsonValue entry = JsonValue::Object();
    entry.Set("task", topology.TaskLabel(t));
    entry.Set("processed_tuples", job.primary(t)->processed_tuples());
    entry.Set("emitted_tuples", job.primary(t)->emitted_tuples());
    entry.Set("processing_cost_us", job.ProcessingCostUs(t));
    entry.Set("checkpoint_cost_us", job.CheckpointCostUs(t));
    entry.Set("checkpoints", job.CheckpointCount(t));
    entry.Set("alive", job.primary(t)->alive());
    tasks.Append(std::move(entry));
  }
  root.Set("tasks", std::move(tasks));

  int64_t tentative = 0, corrections = 0;
  for (const SinkRecord& r : job.sink_records()) {
    tentative += r.tentative;
    corrections += r.correction;
  }
  JsonValue memory = JsonValue::Object();
  memory.Set("buffered_tuples_now", job.CurrentBufferedTuples());
  memory.Set("buffered_tuples_peak", job.PeakBufferedTuples());
  memory.Set("checkpoint_store_bytes",
             job.checkpoint_store().TotalBlobBytes());
  root.Set("memory", std::move(memory));

  JsonValue sink = JsonValue::Object();
  sink.Set("records", static_cast<int64_t>(job.sink_records().size()));
  sink.Set("tentative", tentative);
  sink.Set("corrections", corrections);
  root.Set("sink", std::move(sink));

  JsonValue recoveries = JsonValue::Array();
  for (const RecoveryReport& report : job.recovery_reports()) {
    recoveries.Append(RecoveryReportToJson(topology, report));
  }
  root.Set("recoveries", std::move(recoveries));
  return root;
}

obs::TaskLabeler MakeTaskLabeler(const Topology* topology) {
  return [topology](int64_t task) {
    if (task < 0 || task >= topology->num_tasks()) {
      return std::to_string(task);
    }
    return topology->TaskLabel(static_cast<TaskId>(task));
  };
}

JsonValue JobProfileToJson(const StreamingJob& job) {
  const std::vector<obs::FidelitySample> fidelity = job.fidelity_timeseries();
  return obs::RunProfileToJson(job.metrics(), job.trace(),
                               MakeTaskLabeler(&job.topology()), &fidelity);
}

JsonValue JobChromeTraceToJson(const StreamingJob& job) {
  return obs::ChromeTraceToJson(job.trace(), MakeTaskLabeler(&job.topology()));
}

JsonValue JobFlightRecordToJson(const StreamingJob& job) {
  return obs::FlightRecordToJson(job.trace(),
                                 StreamingJob::kFlightRecorderCapacity,
                                 MakeTaskLabeler(&job.topology()));
}

Status WriteJsonFile(const std::string& path, const JsonValue& value) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal("cannot open '" + path + "' for writing");
  }
  const std::string text = value.Pretty();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Internal("short write to '" + path + "'");
  }
  return OkStatus();
}

}  // namespace ppa
