#ifndef PPA_CHAOS_CHAOS_RUN_H_
#define PPA_CHAOS_CHAOS_RUN_H_

#include <cstdint>
#include <vector>

#include "backend/execution_backend.h"
#include "chaos/chaos_case.h"
#include "chaos/invariants.h"
#include "common/status_or.h"
#include "report/json.h"

namespace ppa {
namespace chaos {

/// Outcome of one executed chaos case. A non-empty `violations` means an
/// invariant broke; a returned error Status from RunChaosCase means the
/// case could not even be executed (bad spec, config, or a runtime error
/// outside the scenario path) — campaigns report both.
struct ChaosRunReport {
  uint64_t seed = 0;
  /// Service cases only: tenants submitted, and how many of them were
  /// admitted at once or had to queue.
  size_t tenants_submitted = 0;
  size_t tenants_admitted = 0;
  size_t tenants_queued = 0;
  size_t events_scheduled = 0;
  size_t events_executed = 0;
  /// Summed over every job under test.
  size_t sink_records = 0;
  size_t recoveries = 0;
  /// Service cases only: arbitration incidents the service decided, and
  /// degradations/promotions the standby rebalancer performed.
  size_t arbitrations = 0;
  size_t degradations = 0;
  size_t promotions = 0;
  /// Final sim time the run (and its golden twins) reached, in seconds.
  double end_seconds = 0.0;
  /// Violations of per-job oracles on a service tenant are prefixed
  /// "tenant <id>: ".
  std::vector<ChaosViolation> violations;
  /// The flight record (obs::FlightRecordToJson shape) of the first job
  /// with a violation, or of the first job under test when only a
  /// case-level oracle failed: the last trace events before the end of
  /// the run. Filled only when `violations` is non-empty, so every
  /// failing case ships its post-mortem. JSON null otherwise.
  JsonValue flight_record;
};

/// Executes one chaos case deterministically and checks `invariants`
/// against the completed run:
///  1. builds the system under test and schedules the event timeline. A
///     single-job case builds one job from the case (topology spec,
///     config scalars, domain assignment, initial plan) driven by a
///     ScenarioRunner; a service case builds a ClusterService, assigns
///     domains, submits every tenant, and fires the timeline through the
///     service's backend;
///  2. runs for `run_for_seconds`, then keeps running in
///     detection-interval steps until the timeline drained and every task
///     recovered (capped at 1800 extra sim-seconds), then a short quiet
///     tail so the tentative windows close;
///  3. reconciles any outstanding tentative outputs of every job;
///  4. replays a fault-free golden twin of every admitted job for the
///     span it ran (end time minus admission time) and hands each pair to
///     the per-job oracles, then runs the case-level oracles once.
///
/// `backend_kind` selects the substrate the chaos run executes on; the
/// golden twins always run on the deterministic sim, so running a case on
/// BackendKind::kThreads checks the threaded backend against the sim
/// oracle under fault injection (the parity contract, DESIGN.md §16).
///
/// The defaults check BuiltinInvariants() on the deterministic sim.
[[nodiscard]] StatusOr<ChaosRunReport> RunChaosCase(
    const ChaosCase& chaos_case,
    const std::vector<const Invariant*>& invariants = BuiltinInvariants(),
    backend::BackendKind backend_kind = backend::BackendKind::kSim);

}  // namespace chaos
}  // namespace ppa

#endif  // PPA_CHAOS_CHAOS_RUN_H_
