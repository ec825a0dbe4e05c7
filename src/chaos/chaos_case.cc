#include "chaos/chaos_case.h"

#include <string>
#include <utility>
#include <vector>

namespace ppa {
namespace chaos {

JobConfig ChaosCase::ToJobConfig() const {
  JobConfig config = JobConfig::PpaDefaults();
  config.batch_interval = Duration::Seconds(batch_interval_seconds);
  config.detection_interval = Duration::Seconds(detection_interval_seconds);
  config.checkpoint_interval = Duration::Seconds(checkpoint_interval_seconds);
  config.num_worker_nodes = num_worker_nodes;
  config.num_standby_nodes = num_standby_nodes;
  config.window_batches = window_batches;
  config.delta_checkpoints = delta_checkpoints;
  config.recovery_mode = recovery_mode;
  config.error_budget.task_divergence_records = af_task_divergence_records;
  // The job budget scales with the per-task one so a handful of thinned
  // tasks never exhausts it by construction.
  config.error_budget.job_divergence_records = af_task_divergence_records * 10;
  config.error_budget.max_certified_loss = af_max_certified_loss;
  return config;
}

service::ServiceConfig ChaosCase::ToServiceConfig() const {
  service::ServiceConfig config;
  config.num_worker_nodes = num_worker_nodes;
  config.num_standby_nodes = num_standby_nodes;
  config.worker_slots_per_node = worker_slots_per_node;
  config.standby_slots_per_node = standby_slots_per_node;
  config.arbitration_slot = Duration::Seconds(arbitration_slot_seconds);
  return config;
}

namespace {

template <typename T>
JsonValue IntArrayToJson(const std::vector<T>& values) {
  JsonValue array = JsonValue::Array();
  for (T value : values) {
    array.Append(static_cast<int64_t>(value));
  }
  return array;
}

}  // namespace

JsonValue ChaosCaseToJson(const ChaosCase& chaos_case) {
  const bool service = chaos_case.is_service();
  JsonValue json = JsonValue::Object();
  json.Set("seed", static_cast<int64_t>(chaos_case.seed));
  if (!service) {
    json.Set("topology_spec", chaos_case.topology_spec);
  }
  json.Set("batch_interval_seconds", chaos_case.batch_interval_seconds);
  json.Set("detection_interval_seconds",
           chaos_case.detection_interval_seconds);
  json.Set("checkpoint_interval_seconds",
           chaos_case.checkpoint_interval_seconds);
  json.Set("num_worker_nodes", chaos_case.num_worker_nodes);
  json.Set("num_standby_nodes", chaos_case.num_standby_nodes);
  if (service) {
    json.Set("worker_slots_per_node", chaos_case.worker_slots_per_node);
    json.Set("standby_slots_per_node", chaos_case.standby_slots_per_node);
    json.Set("arbitration_slot_seconds", chaos_case.arbitration_slot_seconds);
  }
  json.Set("window_batches", chaos_case.window_batches);
  if (!service) {
    json.Set("delta_checkpoints", chaos_case.delta_checkpoints);
  }
  json.Set("recovery_mode",
           std::string(af::RecoveryModeToString(chaos_case.recovery_mode)));
  json.Set("af_task_divergence_records",
           chaos_case.af_task_divergence_records);
  json.Set("af_max_certified_loss", chaos_case.af_max_certified_loss);
  json.Set("node_domains", IntArrayToJson(chaos_case.node_domains));
  if (service) {
    JsonValue tenants = JsonValue::Array();
    for (const TenantCase& tenant : chaos_case.tenants) {
      JsonValue entry = JsonValue::Object();
      entry.Set("topology_spec", tenant.topology_spec);
      entry.Set("replica_budget", tenant.replica_budget);
      entry.Set("priority", tenant.priority);
      entry.Set("initial_plan", IntArrayToJson(tenant.initial_plan));
      entry.Set("worker_affinity", IntArrayToJson(tenant.worker_affinity));
      tenants.Append(std::move(entry));
    }
    json.Set("tenants", std::move(tenants));
  } else {
    json.Set("initial_plan", IntArrayToJson(chaos_case.initial_plan));
    json.Set("budget", chaos_case.budget);
  }
  json.Set("events", ScenarioToJson(chaos_case.events));
  json.Set("run_for_seconds", chaos_case.run_for_seconds);
  return json;
}

namespace {

StatusOr<const JsonValue*> Require(const JsonValue& json, const char* key) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr) {
    return InvalidArgument(std::string("chaos case is missing '") + key +
                           "'");
  }
  return value;
}

StatusOr<double> RequireNumber(const JsonValue& json, const char* key) {
  PPA_ASSIGN_OR_RETURN(const JsonValue* value, Require(json, key));
  if (!value->is_number()) {
    return InvalidArgument(std::string("'") + key + "' must be a number");
  }
  return value->AsDouble();
}

template <typename T = int64_t>
StatusOr<T> RequireInt(const JsonValue& json, const char* key) {
  PPA_ASSIGN_OR_RETURN(const JsonValue* value, Require(json, key));
  if (!value->is_number()) {
    return InvalidArgument(std::string("'") + key + "' must be a number");
  }
  return static_cast<T>(value->AsInt());
}

StatusOr<std::string> RequireString(const JsonValue& json, const char* key) {
  PPA_ASSIGN_OR_RETURN(const JsonValue* value, Require(json, key));
  if (!value->is_string()) {
    return InvalidArgument(std::string("'") + key + "' must be a string");
  }
  return value->AsString();
}

template <typename T>
StatusOr<std::vector<T>> RequireIntArray(const JsonValue& json,
                                         const char* key) {
  PPA_ASSIGN_OR_RETURN(const JsonValue* value, Require(json, key));
  if (!value->is_array()) {
    return InvalidArgument(std::string("'") + key + "' must be an array");
  }
  std::vector<T> values;
  for (size_t i = 0; i < value->size(); ++i) {
    if (!value->at(i).is_number()) {
      return InvalidArgument(std::string("'") + key +
                             "' entries must be integers");
    }
    values.push_back(static_cast<T>(value->at(i).AsInt()));
  }
  return values;
}

StatusOr<TenantCase> TenantCaseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return InvalidArgument("tenant case must be a JSON object");
  }
  TenantCase tenant;
  PPA_ASSIGN_OR_RETURN(tenant.topology_spec,
                       RequireString(json, "topology_spec"));
  PPA_ASSIGN_OR_RETURN(tenant.replica_budget,
                       RequireInt<int>(json, "replica_budget"));
  PPA_ASSIGN_OR_RETURN(tenant.priority, RequireInt<int>(json, "priority"));
  PPA_ASSIGN_OR_RETURN(tenant.initial_plan,
                       RequireIntArray<TaskId>(json, "initial_plan"));
  PPA_ASSIGN_OR_RETURN(tenant.worker_affinity,
                       RequireIntArray<int>(json, "worker_affinity"));
  return tenant;
}

}  // namespace

StatusOr<ChaosCase> ChaosCaseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return InvalidArgument("chaos case must be a JSON object");
  }
  ChaosCase chaos_case;
  PPA_ASSIGN_OR_RETURN(chaos_case.seed, RequireInt<uint64_t>(json, "seed"));
  const JsonValue* tenants = json.Find("tenants");
  if (tenants != nullptr) {
    if (!tenants->is_array() || tenants->size() == 0) {
      return InvalidArgument("'tenants' must be a non-empty array");
    }
    for (size_t i = 0; i < tenants->size(); ++i) {
      PPA_ASSIGN_OR_RETURN(TenantCase tenant,
                           TenantCaseFromJson(tenants->at(i)));
      chaos_case.tenants.push_back(std::move(tenant));
    }
    PPA_ASSIGN_OR_RETURN(chaos_case.worker_slots_per_node,
                         RequireInt<int>(json, "worker_slots_per_node"));
    PPA_ASSIGN_OR_RETURN(chaos_case.standby_slots_per_node,
                         RequireInt<int>(json, "standby_slots_per_node"));
    PPA_ASSIGN_OR_RETURN(chaos_case.arbitration_slot_seconds,
                         RequireNumber(json, "arbitration_slot_seconds"));
  } else {
    PPA_ASSIGN_OR_RETURN(chaos_case.topology_spec,
                         RequireString(json, "topology_spec"));
  }
  PPA_ASSIGN_OR_RETURN(chaos_case.batch_interval_seconds,
                       RequireNumber(json, "batch_interval_seconds"));
  PPA_ASSIGN_OR_RETURN(chaos_case.detection_interval_seconds,
                       RequireNumber(json, "detection_interval_seconds"));
  PPA_ASSIGN_OR_RETURN(chaos_case.checkpoint_interval_seconds,
                       RequireNumber(json, "checkpoint_interval_seconds"));
  PPA_ASSIGN_OR_RETURN(chaos_case.num_worker_nodes,
                       RequireInt<int>(json, "num_worker_nodes"));
  PPA_ASSIGN_OR_RETURN(chaos_case.num_standby_nodes,
                       RequireInt<int>(json, "num_standby_nodes"));
  PPA_ASSIGN_OR_RETURN(chaos_case.window_batches,
                       RequireInt(json, "window_batches"));
  if (tenants == nullptr) {
    PPA_ASSIGN_OR_RETURN(const JsonValue* deltas,
                         Require(json, "delta_checkpoints"));
    if (!deltas->is_bool()) {
      return InvalidArgument("'delta_checkpoints' must be a bool");
    }
    chaos_case.delta_checkpoints = deltas->AsBool();
  }
  // The af fields are optional with defaults: repro JSONs that predate
  // approximate fault tolerance parse as exact (kPpa) cases.
  if (const JsonValue* mode = json.Find("recovery_mode"); mode != nullptr) {
    if (!mode->is_string()) {
      return InvalidArgument("'recovery_mode' must be a string");
    }
    PPA_ASSIGN_OR_RETURN(chaos_case.recovery_mode,
                         af::RecoveryModeFromString(mode->AsString()));
  }
  if (json.Find("af_task_divergence_records") != nullptr) {
    PPA_ASSIGN_OR_RETURN(chaos_case.af_task_divergence_records,
                         RequireInt(json, "af_task_divergence_records"));
  }
  if (json.Find("af_max_certified_loss") != nullptr) {
    PPA_ASSIGN_OR_RETURN(chaos_case.af_max_certified_loss,
                         RequireNumber(json, "af_max_certified_loss"));
  }
  PPA_ASSIGN_OR_RETURN(chaos_case.node_domains,
                       RequireIntArray<int>(json, "node_domains"));
  if (tenants == nullptr) {
    PPA_ASSIGN_OR_RETURN(chaos_case.initial_plan,
                         RequireIntArray<TaskId>(json, "initial_plan"));
    PPA_ASSIGN_OR_RETURN(chaos_case.budget, RequireInt<int>(json, "budget"));
  }
  PPA_ASSIGN_OR_RETURN(const JsonValue* events, Require(json, "events"));
  PPA_ASSIGN_OR_RETURN(chaos_case.events, ScenarioFromJson(*events));
  PPA_ASSIGN_OR_RETURN(chaos_case.run_for_seconds,
                       RequireNumber(json, "run_for_seconds"));
  return chaos_case;
}

StatusOr<ChaosCase> ParseChaosCaseJson(std::string_view text) {
  PPA_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  return ChaosCaseFromJson(json);
}

}  // namespace chaos
}  // namespace ppa
