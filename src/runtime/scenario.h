#ifndef PPA_RUNTIME_SCENARIO_H_
#define PPA_RUNTIME_SCENARIO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "report/json.h"
#include "runtime/streaming_job.h"

namespace ppa {

/// One timed cluster event of a failure drill.
struct ScenarioEvent {
  enum class Kind {
    /// Kill one node (`node`).
    kNodeFailure,
    /// Kill a failure domain (`domain`).
    kDomainFailure,
    /// Kill every node hosting primaries (`include_sources`).
    kCorrelatedFailure,
    /// Swap the active replica set to `plan` (dynamic adaptation).
    kApplyPlan,
    /// Reconcile the tentative outputs accumulated so far.
    kReconcile,
    /// Bring a failed node (`node`) back.
    kReviveNode,
    /// Revive every failed node of a failure domain (`domain`).
    kReviveDomain,
  };

  Duration at;  ///< Offset from scenario scheduling time.
  Kind kind = Kind::kNodeFailure;
  int node = -1;
  int domain = -1;
  bool include_sources = false;
  std::vector<TaskId> plan;

  bool operator==(const ScenarioEvent&) const = default;
};

/// Stable wire name of a scenario event kind (matches the script verbs:
/// "fail-node", "fail-domain", "fail-correlated", "apply-plan",
/// "reconcile", "revive-node", "revive-domain").
std::string_view ScenarioEventKindToString(ScenarioEvent::Kind kind);

/// Inverse of ScenarioEventKindToString.
StatusOr<ScenarioEvent::Kind> ScenarioEventKindFromString(
    std::string_view name);

/// Drives a scripted timeline of failures/plan changes against a running
/// job and records each event's outcome. Events execute on the job's
/// backend at their offsets, in order for equal offsets.
class ScenarioRunner {
 public:
  /// `job` must outlive the runner and must be started before the
  /// backend runs; events go to the job's backend.
  explicit ScenarioRunner(StreamingJob* job);

  /// Schedules every event relative to the backend's current time. A runner
  /// drives exactly one timeline: any second call (even after an empty
  /// first one) returns FailedPrecondition.
  Status Run(std::vector<ScenarioEvent> events);

  /// Statuses of the events that have executed so far, in execution order.
  const std::vector<Status>& outcomes() const { return outcomes_; }
  /// True once every scheduled event has executed. Also true before Run()
  /// is called and after an empty Run(): a scenario with nothing left to
  /// do is finished.
  bool finished() const { return executed_ == scheduled_; }
  /// First non-OK outcome, or OK.
  Status FirstError() const;

 private:
  void Execute(const ScenarioEvent& event);

  StreamingJob* job_;
  bool ran_ = false;
  size_t scheduled_ = 0;
  size_t executed_ = 0;
  std::vector<Status> outcomes_;
};

/// Looks a task up by its TaskLabel() ("mid[1]").
StatusOr<TaskId> FindTaskByLabel(const Topology& topology,
                                 std::string_view label);

/// Parses a line-oriented scenario script:
///
///   # comment
///   at <seconds> fail-node <node>
///   at <seconds> fail-domain <domain>
///   at <seconds> fail-correlated [with-sources]
///   at <seconds> apply-plan <task-label>...
///   at <seconds> reconcile
///   at <seconds> revive-node <node>
///   at <seconds> revive-domain <domain>
///
/// Task labels use the TaskLabel() form ("op[index]") and are resolved
/// against `topology`.
StatusOr<std::vector<ScenarioEvent>> ParseScenario(const Topology& topology,
                                                   std::string_view script);

/// Serializes one event as a JSON object: {"at_us": <micros>, "kind":
/// <wire name>, ...} with only the kind's relevant payload fields present
/// ("node", "domain", "include_sources", "plan" as a task-id array).
JsonValue ScenarioEventToJson(const ScenarioEvent& event);

/// Serializes a timeline as a JSON array of event objects.
JsonValue ScenarioToJson(const std::vector<ScenarioEvent>& events);

/// Inverse of ScenarioEventToJson.
StatusOr<ScenarioEvent> ScenarioEventFromJson(const JsonValue& json);

/// Inverse of ScenarioToJson. `json` must be an array of event objects.
StatusOr<std::vector<ScenarioEvent>> ScenarioFromJson(const JsonValue& json);

/// Parses a scenario from JSON text (a serialized ScenarioToJson array).
StatusOr<std::vector<ScenarioEvent>> ParseScenarioJson(std::string_view text);

}  // namespace ppa

#endif  // PPA_RUNTIME_SCENARIO_H_
