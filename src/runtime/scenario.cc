#include "runtime/scenario.h"

#include <sstream>
#include <utility>

namespace ppa {

std::string_view ScenarioEventKindToString(ScenarioEvent::Kind kind) {
  switch (kind) {
    case ScenarioEvent::Kind::kNodeFailure:
      return "fail-node";
    case ScenarioEvent::Kind::kDomainFailure:
      return "fail-domain";
    case ScenarioEvent::Kind::kCorrelatedFailure:
      return "fail-correlated";
    case ScenarioEvent::Kind::kApplyPlan:
      return "apply-plan";
    case ScenarioEvent::Kind::kReconcile:
      return "reconcile";
    case ScenarioEvent::Kind::kReviveNode:
      return "revive-node";
    case ScenarioEvent::Kind::kReviveDomain:
      return "revive-domain";
  }
  return "?";
}

StatusOr<ScenarioEvent::Kind> ScenarioEventKindFromString(
    std::string_view name) {
  for (ScenarioEvent::Kind kind :
       {ScenarioEvent::Kind::kNodeFailure, ScenarioEvent::Kind::kDomainFailure,
        ScenarioEvent::Kind::kCorrelatedFailure,
        ScenarioEvent::Kind::kApplyPlan, ScenarioEvent::Kind::kReconcile,
        ScenarioEvent::Kind::kReviveNode,
        ScenarioEvent::Kind::kReviveDomain}) {
    if (ScenarioEventKindToString(kind) == name) {
      return kind;
    }
  }
  return InvalidArgument("unknown scenario event kind '" + std::string(name) +
                         "'");
}

ScenarioRunner::ScenarioRunner(StreamingJob* job) : job_(job) {}

Status ScenarioRunner::Run(std::vector<ScenarioEvent> events) {
  if (ran_) {
    return FailedPrecondition("scenario already scheduled");
  }
  ran_ = true;
  scheduled_ = events.size();
  for (ScenarioEvent& event : events) {
    (void)job_->backend()->ScheduleAfter(
        event.at, [this, event = std::move(event)] { Execute(event); });
  }
  return OkStatus();
}

void ScenarioRunner::Execute(const ScenarioEvent& event) {
  Status status;
  switch (event.kind) {
    case ScenarioEvent::Kind::kNodeFailure:
      status = job_->InjectNodeFailure(event.node);
      break;
    case ScenarioEvent::Kind::kDomainFailure:
      status = job_->InjectDomainFailure(event.domain);
      break;
    case ScenarioEvent::Kind::kCorrelatedFailure:
      status = job_->InjectCorrelatedFailure(event.include_sources);
      break;
    case ScenarioEvent::Kind::kApplyPlan: {
      TaskSet plan(job_->topology().num_tasks());
      for (TaskId t : event.plan) {
        plan.Add(t);
      }
      status = job_->ApplyActiveReplicaSet(plan);
      break;
    }
    case ScenarioEvent::Kind::kReconcile:
      status = job_->ReconcileTentativeOutputs().status();
      break;
    case ScenarioEvent::Kind::kReviveNode:
      status = job_->ReviveNode(event.node);
      break;
    case ScenarioEvent::Kind::kReviveDomain:
      status = job_->ReviveDomain(event.domain);
      break;
  }
  outcomes_.push_back(std::move(status));
  ++executed_;
}

Status ScenarioRunner::FirstError() const {
  for (const Status& s : outcomes_) {
    if (!s.ok()) {
      return s;
    }
  }
  return OkStatus();
}

StatusOr<TaskId> FindTaskByLabel(const Topology& topology,
                                 std::string_view label) {
  for (TaskId t = 0; t < topology.num_tasks(); ++t) {
    if (topology.TaskLabel(t) == label) {
      return t;
    }
  }
  return NotFound("no task labelled '" + std::string(label) + "'");
}

StatusOr<std::vector<ScenarioEvent>> ParseScenario(const Topology& topology,
                                                   std::string_view script) {
  std::vector<ScenarioEvent> events;
  std::istringstream in{std::string(script)};
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.resize(hash);
    }
    std::istringstream line(raw);
    std::string at_word;
    if (!(line >> at_word)) {
      continue;
    }
    auto err = [&](const std::string& message) {
      return InvalidArgument("line " + std::to_string(line_no) + ": " +
                             message);
    };
    double seconds = 0;
    std::string verb;
    if (at_word != "at" || !(line >> seconds >> verb)) {
      return err("expected: at <seconds> <event> ...");
    }
    ScenarioEvent event;
    event.at = Duration::Seconds(seconds);
    if (verb == "fail-node") {
      event.kind = ScenarioEvent::Kind::kNodeFailure;
      if (!(line >> event.node)) {
        return err("expected: fail-node <node>");
      }
    } else if (verb == "fail-domain") {
      event.kind = ScenarioEvent::Kind::kDomainFailure;
      if (!(line >> event.domain)) {
        return err("expected: fail-domain <domain>");
      }
    } else if (verb == "fail-correlated") {
      event.kind = ScenarioEvent::Kind::kCorrelatedFailure;
      std::string option;
      if (line >> option) {
        if (option != "with-sources") {
          return err("unknown option '" + option + "'");
        }
        event.include_sources = true;
      }
    } else if (verb == "apply-plan") {
      event.kind = ScenarioEvent::Kind::kApplyPlan;
      std::string label;
      while (line >> label) {
        PPA_ASSIGN_OR_RETURN(TaskId t, FindTaskByLabel(topology, label));
        event.plan.push_back(t);
      }
    } else if (verb == "reconcile") {
      event.kind = ScenarioEvent::Kind::kReconcile;
    } else if (verb == "revive-node") {
      event.kind = ScenarioEvent::Kind::kReviveNode;
      if (!(line >> event.node)) {
        return err("expected: revive-node <node>");
      }
    } else if (verb == "revive-domain") {
      event.kind = ScenarioEvent::Kind::kReviveDomain;
      if (!(line >> event.domain)) {
        return err("expected: revive-domain <domain>");
      }
    } else {
      return err("unknown event '" + verb + "'");
    }
    events.push_back(std::move(event));
  }
  return events;
}

JsonValue ScenarioEventToJson(const ScenarioEvent& event) {
  JsonValue json = JsonValue::Object();
  json.Set("at_us", event.at.micros());
  json.Set("kind", std::string(ScenarioEventKindToString(event.kind)));
  switch (event.kind) {
    case ScenarioEvent::Kind::kNodeFailure:
    case ScenarioEvent::Kind::kReviveNode:
      json.Set("node", event.node);
      break;
    case ScenarioEvent::Kind::kDomainFailure:
    case ScenarioEvent::Kind::kReviveDomain:
      json.Set("domain", event.domain);
      break;
    case ScenarioEvent::Kind::kCorrelatedFailure:
      json.Set("include_sources", event.include_sources);
      break;
    case ScenarioEvent::Kind::kApplyPlan: {
      JsonValue plan = JsonValue::Array();
      for (TaskId t : event.plan) {
        plan.Append(static_cast<int64_t>(t));
      }
      json.Set("plan", std::move(plan));
      break;
    }
    case ScenarioEvent::Kind::kReconcile:
      break;
  }
  return json;
}

JsonValue ScenarioToJson(const std::vector<ScenarioEvent>& events) {
  JsonValue json = JsonValue::Array();
  for (const ScenarioEvent& event : events) {
    json.Append(ScenarioEventToJson(event));
  }
  return json;
}

StatusOr<ScenarioEvent> ScenarioEventFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return InvalidArgument("scenario event must be a JSON object");
  }
  const JsonValue* at = json.Find("at_us");
  if (at == nullptr || !at->is_number()) {
    return InvalidArgument("scenario event needs a numeric 'at_us'");
  }
  const JsonValue* kind = json.Find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return InvalidArgument("scenario event needs a string 'kind'");
  }
  ScenarioEvent event;
  event.at = Duration::Micros(at->AsInt());
  PPA_ASSIGN_OR_RETURN(event.kind,
                       ScenarioEventKindFromString(kind->AsString()));
  auto require_int = [&json](const char* key) -> StatusOr<int> {
    const JsonValue* v = json.Find(key);
    if (v == nullptr || !v->is_number()) {
      return InvalidArgument(std::string("scenario event needs a numeric '") +
                             key + "'");
    }
    return static_cast<int>(v->AsInt());
  };
  switch (event.kind) {
    case ScenarioEvent::Kind::kNodeFailure:
    case ScenarioEvent::Kind::kReviveNode: {
      PPA_ASSIGN_OR_RETURN(event.node, require_int("node"));
      break;
    }
    case ScenarioEvent::Kind::kDomainFailure:
    case ScenarioEvent::Kind::kReviveDomain: {
      PPA_ASSIGN_OR_RETURN(event.domain, require_int("domain"));
      break;
    }
    case ScenarioEvent::Kind::kCorrelatedFailure: {
      const JsonValue* sources = json.Find("include_sources");
      if (sources != nullptr) {
        if (!sources->is_bool()) {
          return InvalidArgument("'include_sources' must be a bool");
        }
        event.include_sources = sources->AsBool();
      }
      break;
    }
    case ScenarioEvent::Kind::kApplyPlan: {
      const JsonValue* plan = json.Find("plan");
      if (plan == nullptr || !plan->is_array()) {
        return InvalidArgument("apply-plan event needs a 'plan' array");
      }
      for (size_t i = 0; i < plan->size(); ++i) {
        const JsonValue& t = plan->at(i);
        if (!t.is_number()) {
          return InvalidArgument("'plan' entries must be task ids");
        }
        event.plan.push_back(static_cast<TaskId>(t.AsInt()));
      }
      break;
    }
    case ScenarioEvent::Kind::kReconcile:
      break;
  }
  return event;
}

StatusOr<std::vector<ScenarioEvent>> ScenarioFromJson(const JsonValue& json) {
  if (!json.is_array()) {
    return InvalidArgument("scenario must be a JSON array of events");
  }
  std::vector<ScenarioEvent> events;
  events.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    auto event = ScenarioEventFromJson(json.at(i));
    if (!event.ok()) {
      return InvalidArgument("event " + std::to_string(i) + ": " +
                             event.status().message());
    }
    events.push_back(*std::move(event));
  }
  return events;
}

StatusOr<std::vector<ScenarioEvent>> ParseScenarioJson(
    std::string_view text) {
  PPA_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  return ScenarioFromJson(json);
}

}  // namespace ppa
