#ifndef PPA_CHAOS_GENERATOR_H_
#define PPA_CHAOS_GENERATOR_H_

#include <string_view>

#include "chaos/chaos_case.h"
#include "common/random.h"
#include "common/status_or.h"

namespace ppa {
namespace chaos {

/// Tunable knobs of the fault-schedule generator. Presets trade schedule
/// density (how many events, how tightly they overlap) against run cost.
struct ChaosIntensity {
  /// Event count is drawn uniformly from [min_events, max_events].
  int min_events = 4;
  int max_events = 10;

  /// Probability that an event is scheduled at exactly the same instant
  /// as the previous one (same-tick races through the event loop's FIFO).
  double overlap_probability = 0.15;

  /// Probability that an event lands inside the detection/recovery window
  /// of the previous failure instead of well after it — the
  /// failure-during-recovery schedules humans rarely write.
  double failure_during_recovery_bias = 0.3;

  /// Per-event kind weights (normalized at draw time). Failures make up
  /// the remaining mass.
  double revive_probability = 0.2;
  double plan_swap_probability = 0.15;
  double reconcile_probability = 0.1;
  /// Among failure draws: fraction that kill a whole domain and fraction
  /// that kill every primary-hosting node at once.
  double domain_failure_fraction = 0.25;
  double correlated_failure_fraction = 0.1;

  /// Low-churn preset: few, well-separated failures.
  [[nodiscard]] static ChaosIntensity Low();
  /// Default preset.
  [[nodiscard]] static ChaosIntensity Medium();
  /// Dense schedules that overlap failures with recoveries aggressively.
  [[nodiscard]] static ChaosIntensity High();
};

/// Parses an intensity preset name ("low", "medium", "high").
[[nodiscard]] StatusOr<ChaosIntensity> ChaosIntensityFromString(
    std::string_view name);

/// Generates a random-but-valid chaos case from `seed`: a random topology
/// (3-6 operators, parallelism 1-3), a cluster sized to it with a random
/// failure-domain assignment, an initial replication plan produced by a
/// randomly chosen planner under a random budget, and an event timeline
/// drawn per `intensity` (node/domain/correlated failures, revivals, plan
/// swaps across all six planners, reconciles). Pure function of
/// (intensity, seed): equal arguments yield equal cases.
[[nodiscard]] StatusOr<ChaosCase> GenerateChaosCase(
    const ChaosIntensity& intensity, uint64_t seed);

/// Generates a random-but-valid service case from `seed`: 2-8 tenants
/// with small random topologies, Zipf-skewed replica budgets, random
/// priorities, a shared cluster that is sometimes deliberately
/// standby-starved, a random domain assignment, and a failure/revival
/// timeline drawn per `intensity` with a bias toward standby-killing
/// events (budget-starvation pressure). It draws its own RNG sequence,
/// independent of GenerateChaosCase's. Pure function of
/// (intensity, seed).
[[nodiscard]] StatusOr<ChaosCase> GenerateServiceCase(
    const ChaosIntensity& intensity, uint64_t seed);

}  // namespace chaos
}  // namespace ppa

#endif  // PPA_CHAOS_GENERATOR_H_
