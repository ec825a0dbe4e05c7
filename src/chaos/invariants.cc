#include "chaos/invariants.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "af/error_budget.h"
#include "ft/recovery_model.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "service/arbiter.h"
#include "topology/task_set.h"

namespace ppa {
namespace chaos {
namespace {

/// Stable (sink task, batch) output group: a multiset of (key, value)
/// pairs. `seq` is excluded on purpose — replica takeover lineages assign
/// different sequence numbers to identical data.
using OutputGroup = std::map<std::pair<std::string, int64_t>, int>;
using GroupKey = std::pair<TaskId, int64_t>;

std::map<GroupKey, OutputGroup> GroupStableRecords(const StreamingJob& job,
                                                   bool corrections) {
  std::map<GroupKey, OutputGroup> groups;
  for (const SinkRecord& record : job.sink_records()) {
    if (record.tentative || record.correction != corrections) {
      continue;
    }
    groups[{record.tuple.producer, record.tuple.batch}]
          [{record.tuple.key.str(), record.tuple.value}]++;
  }
  return groups;
}

/// Batches whose stable output may legitimately differ from the golden
/// run: every batch the sink emitted while some task was failed or
/// catching up, plus the guard window after it, during which recovered
/// sliding windows still contain degraded batches (state pollution
/// persists for up to window_batches per operator level, and windows nest
/// across the topology's stages). Tentative marking alone is not enough:
/// between a failure and its heartbeat detection the sink keeps emitting
/// nominally-stable batches that silently miss the dead tasks'
/// contributions (Sec. V-B marks outputs tentative only from detection
/// on), so degradation is replayed from the trace's failure/caught-up
/// bracketing instead.
std::set<int64_t> DegradedBatches(const ChaosRunContext& context) {
  std::set<int64_t> degraded;
  std::set<int64_t> unhealthy;
  for (const obs::TraceEvent& e : context.job->trace().events()) {
    switch (e.kind) {
      case obs::TraceEventKind::kTaskFailed:
        unhealthy.insert(e.task);
        break;
      case obs::TraceEventKind::kTaskCaughtUp:
        unhealthy.erase(e.task);
        break;
      case obs::TraceEventKind::kSinkBatchStable:
        if (!unhealthy.empty()) {
          degraded.insert(e.a);
        }
        break;
      case obs::TraceEventKind::kSinkBatchTentative:
        degraded.insert(e.a);
        break;
      default:
        break;
    }
  }
  return degraded;
}

bool InGuardWindow(const std::set<int64_t>& degraded, int64_t guard,
                   int64_t batch) {
  // The nearest degraded batch at or before `batch` decides.
  auto it = degraded.upper_bound(batch);
  if (it == degraded.begin()) {
    return false;
  }
  --it;
  return batch - *it <= guard;
}

class ExactlyOnceStableInvariant : public Invariant {
 public:
  std::string_view name() const override { return "exactly-once-stable"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    const std::map<GroupKey, OutputGroup> golden =
        GroupStableRecords(*context.golden, /*corrections=*/false);
    const std::set<int64_t> degraded = DegradedBatches(context);
    const int64_t guard =
        context.chaos_case->window_batches *
        static_cast<int64_t>(context.job->topology().num_operators());

    const std::map<GroupKey, OutputGroup> stable =
        GroupStableRecords(*context.job, /*corrections=*/false);
    for (const auto& [key, group] : stable) {
      if (InGuardWindow(degraded, guard, key.second)) {
        continue;
      }
      CompareGroup(key, group, golden, "stable", violations);
    }

    // Reconcile corrections re-execute the degraded range on complete
    // inputs with an exact warm-up, so they must equal the golden output
    // with no guard exclusion at all.
    const std::map<GroupKey, OutputGroup> corrections =
        GroupStableRecords(*context.job, /*corrections=*/true);
    for (const auto& [key, group] : corrections) {
      CompareGroup(key, group, golden, "corrected", violations);
    }
  }

 private:
  void CompareGroup(const GroupKey& key, const OutputGroup& group,
                    const std::map<GroupKey, OutputGroup>& golden,
                    const char* label,
                    std::vector<ChaosViolation>* violations) const {
    const std::string where = std::string(label) + " sink output (task " +
                              std::to_string(key.first) + ", batch " +
                              std::to_string(key.second) + ")";
    auto it = golden.find(key);
    if (it == golden.end()) {
      violations->push_back(
          {std::string(name()),
           where + " has no counterpart in the fault-free golden run"});
      return;
    }
    if (group != it->second) {
      violations->push_back(
          {std::string(name()),
           where + " differs from the fault-free golden run"});
    }
  }
};

class FidelityBoundsInvariant : public Invariant {
 public:
  std::string_view name() const override { return "fidelity-bounds"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    const std::vector<obs::FidelitySample> samples =
        context.job->fidelity_timeseries();
    for (const obs::FidelitySample& sample : samples) {
      if (sample.output_fidelity < 0.0 || sample.output_fidelity > 1.0 ||
          sample.internal_completeness < 0.0 ||
          sample.internal_completeness > 1.0) {
        violations->push_back(
            {std::string(name()),
             "OF/IC sample out of [0,1] at batch " +
                 std::to_string(sample.batch) + ": OF=" +
                 std::to_string(sample.output_fidelity) + " IC=" +
                 std::to_string(sample.internal_completeness)});
      }
    }
    // After full recovery with every tentative window closed, fidelity
    // must be back at 1.0 (the closing stable sample sees no failures).
    if (!context.job->AllRecovered() || samples.empty()) {
      return;
    }
    const std::vector<obs::TentativeWindow> windows =
        obs::ExtractTentativeWindows(context.job->trace());
    for (const obs::TentativeWindow& window : windows) {
      if (!window.closed) {
        return;  // Liveness reports unclosed windows separately.
      }
    }
    const obs::FidelitySample& last = samples.back();
    if (last.tentative || last.output_fidelity != 1.0 ||
        last.internal_completeness != 1.0) {
      violations->push_back(
          {std::string(name()),
           "fidelity did not return to 1.0 after full recovery: final "
           "sample has OF=" +
               std::to_string(last.output_fidelity) + " IC=" +
               std::to_string(last.internal_completeness)});
    }
  }
};

class LivenessInvariant : public Invariant {
 public:
  std::string_view name() const override { return "liveness"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    if (!context.job->AllRecovered()) {
      violations->push_back(
          {std::string(name()),
           "run ended with tasks still failed or recovering"});
    }
    // A task that failed repeatedly may leave earlier episodes without a
    // caught-up mark (a re-failure supersedes the catch-up); its final
    // episode must complete the full cycle within the bound.
    const std::vector<obs::RecoveryTimeline> timelines =
        obs::BuildRecoveryTimelines(context.job->trace());
    std::map<int64_t, const obs::RecoveryTimeline*> last_episode;
    for (const obs::RecoveryTimeline& timeline : timelines) {
      last_episode[timeline.task] = &timeline;
    }
    const Duration bound =
        Duration::Seconds(context.chaos_case->detection_interval_seconds) +
        Duration::Seconds(150.0);
    for (const auto& [task, timeline] : last_episode) {
      if (!timeline->restored || !timeline->caught_up) {
        violations->push_back(
            {std::string(name()),
             "task " + std::to_string(task) +
                 " never completed recovery (restored=" +
                 (timeline->restored ? "yes" : "no") + ", caught_up=" +
                 (timeline->caught_up ? "yes" : "no") + ")"});
        continue;
      }
      const Duration latency = timeline->caught_up_at - timeline->failed_at;
      if (latency > bound) {
        violations->push_back(
            {std::string(name()),
             "task " + std::to_string(task) + " took " +
                 std::to_string(latency.seconds()) +
                 "s from failure to caught-up (bound " +
                 std::to_string(bound.seconds()) + "s)"});
      }
    }
  }
};

class ReplicaBudgetInvariant : public Invariant {
 public:
  std::string_view name() const override { return "replica-budget"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    // Replay the trace: a replica slot opens at kReplicaActivated and
    // closes at kReplicaDeactivated or when recovery promotes it to
    // primary. Plan swaps must keep the replicas of currently-failed
    // tasks (they may be the recovery path), so the enforced ceiling is
    // budget + #failed.
    const int64_t budget = context.replica_budget;
    int64_t running = 0;
    std::set<int64_t> failed;
    for (const obs::TraceEvent& e : context.job->trace().events()) {
      switch (e.kind) {
        case obs::TraceEventKind::kReplicaActivated:
          ++running;
          break;
        case obs::TraceEventKind::kReplicaDeactivated:
          --running;
          break;
        case obs::TraceEventKind::kTaskFailed:
          failed.insert(e.task);
          break;
        case obs::TraceEventKind::kRecoveryDone:
          if (e.a == static_cast<int64_t>(RecoveryKind::kActiveReplica)) {
            --running;
          }
          failed.erase(e.task);
          break;
        default:
          break;
      }
      if (running < 0) {
        violations->push_back(
            {std::string(name()),
             "replica accounting went negative at t=" +
                 std::to_string(e.at.seconds()) + "s"});
        return;
      }
      if (running > budget + static_cast<int64_t>(failed.size())) {
        violations->push_back(
            {std::string(name()),
             std::to_string(running) + " active replicas at t=" +
                 std::to_string(e.at.seconds()) +
                 "s exceeds budget " + std::to_string(budget) + " + " +
                 std::to_string(failed.size()) + " failed tasks"});
        return;
      }
    }
  }
};

class TimelineSanityInvariant : public Invariant {
 public:
  std::string_view name() const override { return "timeline-sanity"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    for (const obs::RecoveryTimeline& timeline :
         obs::BuildRecoveryTimelines(context.job->trace())) {
      const std::string task = "task " + std::to_string(timeline.task);
      if (timeline.detected && timeline.detected_at < timeline.failed_at) {
        violations->push_back(
            {std::string(name()), task + " detected before it failed"});
      }
      if (timeline.restored && timeline.detected &&
          timeline.restored_at < timeline.detected_at) {
        violations->push_back(
            {std::string(name()), task + " restored before detection"});
      }
      if (timeline.caught_up && timeline.restored &&
          timeline.caught_up_at < timeline.restored_at) {
        violations->push_back(
            {std::string(name()), task + " caught up before restoration"});
      }
    }
    for (const obs::TentativeWindow& window :
         obs::ExtractTentativeWindows(context.job->trace())) {
      if (window.closed &&
          (window.end < window.begin || window.last_batch < window.first_batch)) {
        violations->push_back(
            {std::string(name()),
             "tentative window closes before it opens (batches " +
                 std::to_string(window.first_batch) + ".." +
                 std::to_string(window.last_batch) + ")"});
      }
    }
    for (const RecoveryReport& report : context.job->recovery_reports()) {
      if (report.detection_time < report.failure_time ||
          report.TotalLatency() < Duration::Zero()) {
        violations->push_back(
            {std::string(name()),
             "recovery report with negative latency at t=" +
                 std::to_string(report.failure_time.seconds()) +
                 "s"});
      }
    }
  }
};

class ErrorBudgetInvariant : public Invariant {
 public:
  std::string_view name() const override { return "error-budget"; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    const auto& certs = context.job->approx_certificates();
    const int64_t skipped = context.job->trace().CountOf(
        obs::TraceEventKind::kCheckpointSkipped);
    if (context.chaos_case->recovery_mode == af::RecoveryMode::kPpa) {
      // Exact mode must be exactly the pre-af engine: no thinning, no
      // approximate recoveries, ever.
      if (skipped > 0) {
        violations->push_back(
            {std::string(name()),
             std::to_string(skipped) +
                 " checkpoints skipped under recovery_mode=ppa"});
      }
      if (!certs.empty()) {
        violations->push_back(
            {std::string(name()),
             std::to_string(certs.size()) +
                 " approximate recoveries under recovery_mode=ppa"});
      }
      return;
    }
    // Every certificate honors the declared cap.
    const double cap = context.chaos_case->af_max_certified_loss;
    for (const af::ApproxCertificate& cert : certs) {
      if (cert.certified_loss > cap + 1e-9) {
        violations->push_back(
            {std::string(name()),
             "task " + std::to_string(cert.task) +
                 " certified loss " + std::to_string(cert.certified_loss) +
                 " exceeds the declared cap " + std::to_string(cap)});
      }
    }
    if (certs.empty()) {
      return;
    }
    // Golden-twin comparison: in the post-recovery region that an
    // approximate recovery polluted (the guard window after its resume
    // point), the measured per-batch output deficit must stay within the
    // certified OF bound of the forfeiting tasks. Batches emitted while
    // tasks were failed or catching up degrade for exact-PPA reasons and
    // are excluded, as is guard slop not attributable to any certificate.
    const std::map<GroupKey, OutputGroup> golden =
        GroupStableRecords(*context.golden, /*corrections=*/false);
    const std::map<GroupKey, OutputGroup> stable =
        GroupStableRecords(*context.job, /*corrections=*/false);
    const std::set<int64_t> degraded = DegradedBatches(context);
    const int64_t guard =
        context.chaos_case->window_batches *
        static_cast<int64_t>(context.job->topology().num_operators());
    const int num_tasks = context.job->topology().num_tasks();
    for (const auto& [key, golden_group] : golden) {
      const int64_t batch = key.second;
      if (degraded.count(batch) > 0) {
        continue;
      }
      TaskSet forfeiters(num_tasks);
      bool certified = false;
      for (const af::ApproxCertificate& cert : certs) {
        if (batch >= cert.resumed_batch &&
            batch <= cert.resumed_batch + guard) {
          forfeiters.Add(static_cast<TaskId>(cert.task));
          certified = true;
        }
      }
      if (!certified) {
        continue;  // Exact regions are exactly-once-stable's job.
      }
      int64_t golden_tuples = 0;
      for (const auto& [tuple, count] : golden_group) {
        golden_tuples += count;
      }
      int64_t faulty_tuples = 0;
      auto it = stable.find(key);
      if (it != stable.end()) {
        for (const auto& [tuple, count] : it->second) {
          faulty_tuples += count;
        }
      }
      if (golden_tuples <= 0 || faulty_tuples >= golden_tuples) {
        continue;
      }
      const double deficit =
          1.0 - static_cast<double>(faulty_tuples) /
                    static_cast<double>(golden_tuples);
      const double allowed =
          af::CertifiedLossBound(context.job->topology(), forfeiters);
      // Small relative tolerance plus an absolute couple-of-tuples slack:
      // integer batch boundaries make tiny deficits unavoidable noise.
      if (deficit > allowed + 0.05 && golden_tuples - faulty_tuples > 2) {
        violations->push_back(
            {std::string(name()),
             "sink task " + std::to_string(key.first) + " batch " +
                 std::to_string(batch) + " lost " +
                 std::to_string(deficit) +
                 " of its golden output; certified bound was " +
                 std::to_string(allowed)});
      }
    }
  }
};

class EventSanityInvariant : public Invariant {
 public:
  std::string_view name() const override { return "event-sanity"; }
  bool per_job() const override { return false; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    if (!context.scenario_finished) {
      violations->push_back(
          {std::string(name()),
           "not every scheduled scenario event executed"});
    }
    const std::vector<Status>& outcomes = *context.event_outcomes;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const StatusCode code = outcomes[i].code();
      // Random schedules legitimately hit precondition rejections (a
      // revive racing a failure, a reconcile with nothing degraded, an
      // exhaustive planner over its step cap). Anything else means the
      // generator emitted garbage or the runtime broke.
      const bool acceptable = code == StatusCode::kOk ||
                              code == StatusCode::kFailedPrecondition ||
                              code == StatusCode::kNotFound ||
                              code == StatusCode::kResourceExhausted;
      if (!acceptable) {
        violations->push_back(
            {std::string(name()),
             "event " + std::to_string(i) + " resolved to " +
                 outcomes[i].ToString()});
      }
    }
  }
};

class AdmissionSanityInvariant : public Invariant {
 public:
  std::string_view name() const override { return "admission-sanity"; }
  bool per_job() const override { return false; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    if (context.service == nullptr) {
      return;
    }
    // No evict events exist in a chaos timeline, so a stopped job means
    // admission double-charged capacity and gave up on a queued tenant.
    for (int id : context.service->TenantIds()) {
      const StreamingJob* job = context.service->job(id);
      if (job != nullptr && job->stopped()) {
        violations->push_back({std::string(name()),
                               "tenant " + std::to_string(id) +
                                   " was evicted during the run"});
      }
    }
  }
};

class TenantReplicaBudgetInvariant : public Invariant {
 public:
  std::string_view name() const override { return "tenant-replica-budget"; }
  bool per_job() const override { return false; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    // End-state per-tenant ceiling: placed replicas never exceed the
    // tenant's budget (zero while degraded) plus its currently-failed
    // tasks (whose replicas may be the recovery path).
    const service::ClusterService* svc = context.service;
    if (svc == nullptr) {
      return;
    }
    for (int id : svc->TenantIds()) {
      const StreamingJob* job = svc->job(id);
      if (job == nullptr || job->stopped()) {
        continue;
      }
      const int64_t budget =
          svc->PhaseOf(id).value() == service::TenantPhase::kDegraded
              ? 0
              : svc->spec(id)->replica_budget;
      const int64_t failed =
          static_cast<int64_t>(job->UnrecoveredTasks().ToVector().size());
      const int64_t placed =
          static_cast<int64_t>(job->cluster().PlacedReplicas());
      if (placed > budget + failed) {
        violations->push_back(
            {std::string(name()),
             "tenant " + std::to_string(id) + " holds " +
                 std::to_string(placed) + " placed replicas, ceiling " +
                 std::to_string(budget) + " + " + std::to_string(failed) +
                 " failed tasks"});
      }
    }
  }
};

class ArbitrationOrderInvariant : public Invariant {
 public:
  std::string_view name() const override { return "arbitration-order"; }
  bool per_job() const override { return false; }

  void Check(const ChaosRunContext& context,
             std::vector<ChaosViolation>* violations) const override {
    // Every logged decision must match the deterministic policy order
    // with rank-proportional holds.
    if (context.service == nullptr) {
      return;
    }
    const Duration slot = context.service->config().arbitration_slot;
    const std::vector<service::ArbitrationDecision>& log =
        context.service->arbitration_log();
    for (size_t d = 0; d < log.size(); ++d) {
      const service::ArbitrationDecision& decision = log[d];
      std::vector<service::ArbitrationClaim> claims;
      claims.reserve(decision.order.size());
      for (const service::ArbitrationHold& hold : decision.order) {
        claims.push_back(hold.claim);
      }
      const std::vector<service::ArbitrationClaim> expected =
          service::ArbitrationOrder(claims);
      for (size_t i = 0; i < decision.order.size(); ++i) {
        if (decision.order[i].claim.tenant != expected[i].tenant) {
          violations->push_back(
              {std::string(name()),
               "decision " + std::to_string(d) + " ranks tenant " +
                   std::to_string(decision.order[i].claim.tenant) + " at " +
                   std::to_string(i) + " but the policy puts tenant " +
                   std::to_string(expected[i].tenant) + " there"});
          break;
        }
        const Duration want = slot * static_cast<int64_t>(i);
        if (decision.order[i].hold != want) {
          violations->push_back(
              {std::string(name()),
               "decision " + std::to_string(d) + " holds rank " +
                   std::to_string(i) + " for " +
                   std::to_string(decision.order[i].hold.seconds()) +
                   "s, expected " + std::to_string(want.seconds()) + "s"});
          break;
        }
      }
    }
  }
};

}  // namespace

const std::vector<const Invariant*>& BuiltinInvariants() {
  static const ExactlyOnceStableInvariant exactly_once;
  static const FidelityBoundsInvariant fidelity_bounds;
  static const LivenessInvariant liveness;
  static const ReplicaBudgetInvariant replica_budget;
  static const TimelineSanityInvariant timeline_sanity;
  static const ErrorBudgetInvariant error_budget;
  static const EventSanityInvariant event_sanity;
  static const AdmissionSanityInvariant admission_sanity;
  static const TenantReplicaBudgetInvariant tenant_replica_budget;
  static const ArbitrationOrderInvariant arbitration_order;
  static const std::vector<const Invariant*> all = {
      &exactly_once,     &fidelity_bounds,       &liveness,
      &replica_budget,   &timeline_sanity,       &error_budget,
      &event_sanity,     &admission_sanity,      &tenant_replica_budget,
      &arbitration_order,
  };
  return all;
}

}  // namespace chaos
}  // namespace ppa
