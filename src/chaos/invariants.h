#ifndef PPA_CHAOS_INVARIANTS_H_
#define PPA_CHAOS_INVARIANTS_H_

#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos_case.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "runtime/streaming_job.h"
#include "service/cluster_service.h"

namespace ppa {
namespace chaos {

/// One invariant failure found by an oracle. `invariant` is the oracle's
/// stable name; the minimizer shrinks schedules while preserving a
/// violation of the same invariant.
struct ChaosViolation {
  std::string invariant;
  std::string message;

  bool operator==(const ChaosViolation&) const = default;
};

/// Everything an invariant may inspect after a chaos run completed. A
/// run checks its per-job oracles once per job under test, each time
/// with `job`, `golden` and `replica_budget` describing that job, and its
/// case-level oracles once per case.
struct ChaosRunContext {
  const ChaosCase* chaos_case = nullptr;
  /// The job under test (trace, metrics, timelines, sink records) and the
  /// fault-free golden twin of it, run to the same end time. Set for
  /// per-job oracles.
  const StreamingJob* job = nullptr;
  const StreamingJob* golden = nullptr;
  /// Replica ceiling of `job`: the case's `budget`, or the tenant's
  /// `replica_budget` in a service case.
  int64_t replica_budget = 0;
  /// The service hosting a service case's tenants; null for a single-job
  /// case.
  const service::ClusterService* service = nullptr;
  /// Per-event statuses in execution order.
  const std::vector<Status>* event_outcomes = nullptr;
  /// Whether every scheduled event fired before the run ended.
  bool scenario_finished = false;
  /// Final sim time the run reached.
  TimePoint end_time;
};

/// A system-level correctness oracle evaluated against a completed run.
/// Implementations append one ChaosViolation per distinct failure; an
/// empty append means the invariant held.
class Invariant {
 public:
  virtual ~Invariant() = default;

  /// Stable identifier ("exactly-once-stable", "liveness", ...).
  virtual std::string_view name() const = 0;

  /// True for oracles over one job (run once per job under test, with a
  /// "tenant <id>: " message prefix in service cases); false for oracles
  /// over the whole case (run once).
  virtual bool per_job() const { return true; }

  /// Appends violations found in `context` to `violations`.
  virtual void Check(const ChaosRunContext& context,
                     std::vector<ChaosViolation>* violations) const = 0;
};

/// The built-in oracle catalog (see DESIGN.md §12 for the precise
/// statements). Per job:
///  - exactly-once-stable: stable non-correction output matches the
///    golden run per (sink, batch), outside the post-recovery window
///    guard; reconcile corrections match golden exactly.
///  - fidelity-bounds: every OF/IC sample is in [0, 1], and fidelity is
///    back at 1.0 once everything recovered and windows closed.
///  - liveness: every failed task's last episode restores and catches up
///    within a sim-time bound, and the job ends fully recovered.
///  - replica-budget: the count of live active replicas never exceeds
///    the job's replica budget plus the number of currently-failed tasks
///    (whose replicas a plan swap must not tear down).
///  - timeline-sanity: recovery phases and tentative windows are
///    time-ordered; recovery reports carry no negative latency.
///  - error-budget: under recovery_mode=ppa no checkpoint is ever
///    skipped; under approx/hybrid every divergence certificate honors
///    the declared cap, and the golden-twin per-batch output deficit in
///    certified post-recovery windows never exceeds the certified OF
///    bound.
/// Per case:
///  - event-sanity: every scenario event executed and resolved to an
///    acceptable status (OK, or the precondition rejections a random
///    schedule legitimately hits), never InvalidArgument/Internal.
///  - admission-sanity, tenant-replica-budget, arbitration-order: service
///    cases only (no-ops without a service). No tenant is evicted; every
///    tenant's placed replicas respect its (possibly degraded-to-zero)
///    ceiling at the end; every logged arbitration decision matches the
///    deterministic policy order with rank-proportional holds.
/// The pointers are to function-local statics; never delete them.
const std::vector<const Invariant*>& BuiltinInvariants();

}  // namespace chaos
}  // namespace ppa

#endif  // PPA_CHAOS_INVARIANTS_H_
