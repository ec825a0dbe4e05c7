#include "obs/chrome_trace.h"

#include <set>
#include <string>

#include "obs/timeline.h"

namespace ppa {
namespace obs {
namespace {

// Track (pid) layout of the exported trace.
constexpr int kJobPid = 0;
constexpr int kClusterPid = 1;
constexpr int kTasksPid = 2;

std::string LabelFor(const TaskLabeler& labeler, int64_t task) {
  return labeler != nullptr ? labeler(task) : std::to_string(task);
}

JsonValue MetadataEvent(std::string_view name, int pid, int64_t tid,
                        std::string value) {
  JsonValue ev = JsonValue::Object();
  ev.Set("name", std::string(name));
  ev.Set("ph", "M");
  ev.Set("pid", pid);
  ev.Set("tid", tid);
  JsonValue args = JsonValue::Object();
  args.Set("name", std::move(value));
  ev.Set("args", std::move(args));
  return ev;
}

void AppendMetadata(const TraceLog& trace, const TaskLabeler& labeler,
                    JsonValue* events) {
  events->Append(MetadataEvent("process_name", kJobPid, 0, "job"));
  events->Append(MetadataEvent("process_name", kClusterPid, 0, "cluster"));
  events->Append(MetadataEvent("process_name", kTasksPid, 0, "tasks"));
  events->Append(MetadataEvent("thread_name", kJobPid, 0, "control"));
  std::set<int> nodes;
  std::set<int64_t> tasks;
  for (const TraceEvent& e : trace.events()) {
    if (e.node >= 0) {
      nodes.insert(e.node);
    }
    if (e.task >= 0) {
      tasks.insert(e.task);
    }
  }
  for (const int node : nodes) {
    events->Append(MetadataEvent("thread_name", kClusterPid, node,
                                 "node " + std::to_string(node)));
  }
  for (const int64_t task : tasks) {
    events->Append(
        MetadataEvent("thread_name", kTasksPid, task, LabelFor(labeler, task)));
  }
}

JsonValue TaskDurationEvent(std::string_view name, int64_t task,
                            TimePoint begin, Duration dur) {
  JsonValue ev = JsonValue::Object();
  ev.Set("name", std::string(name));
  ev.Set("cat", std::string(name));
  ev.Set("ph", "X");
  ev.Set("ts", begin.micros());
  ev.Set("dur", dur.micros());
  ev.Set("pid", kTasksPid);
  ev.Set("tid", task);
  return ev;
}

void AppendCheckpoints(const TraceLog& trace, JsonValue* events) {
  for (const TraceEvent& e : trace.events()) {
    // The end event sits at begin + modeled cost and carries the cost
    // (b, in microseconds), so it alone spans the capture.
    if (e.kind != TraceEventKind::kCheckpointEnd || e.b <= 0) {
      continue;
    }
    const Duration cost = Duration::Micros(e.b);
    JsonValue ev = TaskDurationEvent("checkpoint", e.task, e.at - cost, cost);
    JsonValue args = JsonValue::Object();
    args.Set("bytes", e.a);
    ev.Set("args", std::move(args));
    events->Append(std::move(ev));
  }
}

void AppendRecoveries(const TraceLog& trace, JsonValue* events) {
  for (const RecoveryTimeline& tl : BuildRecoveryTimelines(trace)) {
    if (!tl.detected || !tl.restored) {
      continue;
    }
    JsonValue ev = TaskDurationEvent("recovery", tl.task, tl.detected_at,
                                     tl.RecoveryLatency());
    JsonValue args = JsonValue::Object();
    args.Set("recovery_kind", tl.recovery_kind);
    ev.Set("args", std::move(args));
    events->Append(std::move(ev));
  }
}

void AppendTentativeWindows(const TraceLog& trace, JsonValue* events) {
  for (const TentativeWindow& w : ExtractTentativeWindows(trace)) {
    if (!w.closed) {
      continue;  // The open window's begin instant is still in the trace.
    }
    JsonValue ev = JsonValue::Object();
    ev.Set("name", "tentative-window");
    ev.Set("cat", "window");
    ev.Set("ph", "X");
    ev.Set("ts", w.begin.micros());
    ev.Set("dur", (w.end - w.begin).micros());
    ev.Set("pid", kJobPid);
    ev.Set("tid", 0);
    JsonValue args = JsonValue::Object();
    args.Set("first_batch", w.first_batch);
    args.Set("last_batch", w.last_batch);
    ev.Set("args", std::move(args));
    events->Append(std::move(ev));
  }
}

void AppendInstants(const TraceLog& trace, const TaskLabeler& labeler,
                    JsonValue* events) {
  for (const TraceEvent& e : trace.events()) {
    JsonValue ev = JsonValue::Object();
    ev.Set("name", std::string(TraceEventKindToString(e.kind)));
    ev.Set("cat", "trace");
    ev.Set("ph", "i");
    ev.Set("ts", e.at.micros());
    if (e.task >= 0) {
      ev.Set("pid", kTasksPid);
      ev.Set("tid", e.task);
    } else if (e.node >= 0) {
      ev.Set("pid", kClusterPid);
      ev.Set("tid", e.node);
    } else {
      ev.Set("pid", kJobPid);
      ev.Set("tid", 0);
    }
    ev.Set("s", "t");
    JsonValue args = JsonValue::Object();
    args.Set("seq", static_cast<int64_t>(e.seq));
    if (e.task >= 0) {
      args.Set("task", LabelFor(labeler, e.task));
    }
    if (e.node >= 0) {
      args.Set("node", e.node);
    }
    args.Set("a", e.a);
    args.Set("b", e.b);
    ev.Set("args", std::move(args));
    events->Append(std::move(ev));
  }
}

}  // namespace

JsonValue ChromeTraceToJson(const TraceLog& trace,
                            const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Object();
  out.Set("displayTimeUnit", "ms");
  JsonValue events = JsonValue::Array();
  AppendMetadata(trace, labeler, &events);
  AppendCheckpoints(trace, &events);
  AppendRecoveries(trace, &events);
  AppendTentativeWindows(trace, &events);
  AppendInstants(trace, labeler, &events);
  out.Set("traceEvents", std::move(events));
  return out;
}

JsonValue EmptyChromeTrace() {
  JsonValue out = JsonValue::Object();
  out.Set("displayTimeUnit", "ms");
  out.Set("traceEvents", JsonValue::Array());
  return out;
}

}  // namespace obs
}  // namespace ppa
