#ifndef PPA_CHAOS_CAMPAIGN_H_
#define PPA_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backend/execution_backend.h"
#include "chaos/chaos_case.h"
#include "chaos/chaos_run.h"
#include "chaos/generator.h"
#include "chaos/minimizer.h"
#include "common/status_or.h"
#include "exp/progress.h"
#include "report/json.h"

namespace ppa {
namespace chaos {

/// Knobs of a chaos campaign.
struct CampaignOptions {
  /// Base of the per-case seed stream: case i runs with
  /// DeriveSeed(base_seed, i).
  uint64_t base_seed = 1;
  /// Cases to generate and execute.
  int num_seeds = 64;
  /// Generator preset shared by every case.
  ChaosIntensity intensity;
  /// Generate service cases (GenerateServiceCase: many tenants on one
  /// shared pool) instead of single-job ones (GenerateChaosCase).
  bool service_cases = false;
  /// Execution substrate every case runs on. The golden twin and the
  /// minimizer oracle always stay on the deterministic sim, so a threads
  /// campaign is a fault-injected parity sweep of the threaded backend.
  backend::BackendKind backend = backend::BackendKind::kSim;
  /// Recovery mode stamped into every generated case (src/af). Non-kPpa
  /// campaigns exercise checkpoint thinning, and the error-budget
  /// invariant holds the measured loss to the certified bound.
  af::RecoveryMode recovery_mode = af::RecoveryMode::kPpa;
  /// Shrink every failing case with MinimizeFailingCase. Minimization
  /// runs inside the mapped case so it parallelizes with the campaign.
  bool minimize = false;
  /// Worker threads; results are in submission order regardless, so a
  /// campaign report is byte-identical across jobs counts.
  int jobs = 1;
  /// Optional live progress tally, ticked once per finished case from
  /// whatever worker ran it (completion order, not index order). Purely
  /// observational: it never influences the report, which stays a pure
  /// function of the other options. Not owned; may be null.
  exp::ProgressMeter* progress = nullptr;
};

/// Outcome of one campaign case. `error` is non-empty when the case could
/// not execute at all (generator or runner error); otherwise `report`
/// holds the run and any invariant violations.
struct CampaignCaseResult {
  int index = 0;
  uint64_t seed = 0;
  /// The generated case (also the replayable repro when it failed).
  ChaosCase chaos_case;
  std::string error;
  ChaosRunReport report;
  /// Filled when the case violated an invariant and minimization was on
  /// and succeeded.
  bool has_minimized = false;
  ChaosCase minimized;
  std::string minimized_invariant;
  int minimize_oracle_calls = 0;
  /// Flight record of one rerun of the minimized case (JSON null when
  /// no minimized case exists or the rerun stopped failing), so the
  /// *shrunk* repro ships its own post-mortem too.
  JsonValue minimized_flight_record;

  /// True when the case either failed to execute or broke an invariant.
  [[nodiscard]] bool failed() const {
    return !error.empty() || !report.violations.empty();
  }
};

/// Outcome of a whole campaign.
struct CampaignReport {
  CampaignOptions options;
  /// One entry per case, indexed by case number.
  std::vector<CampaignCaseResult> results;
  /// Cases that broke an invariant or failed to execute.
  int num_failed = 0;
  /// Invariant violations summed over all cases.
  int num_violations = 0;
};

/// Runs `options.num_seeds` generated chaos cases across
/// `options.jobs` threads. Every case derives its own RNG stream from
/// (base_seed, index), and results come back in index order, so the
/// report is a pure function of the options. Fails only on invalid
/// options; per-case errors are recorded in the report instead.
[[nodiscard]] StatusOr<CampaignReport> RunCampaign(
    const CampaignOptions& options);

/// Serializes a campaign report. Passing cases contribute a compact
/// summary line; failing cases additionally embed the full replayable
/// case JSON (and the minimized one when present). Contains no
/// wall-clock data, so equal campaigns serialize byte-identically.
[[nodiscard]] JsonValue CampaignReportToJson(const CampaignReport& report);

}  // namespace chaos
}  // namespace ppa

#endif  // PPA_CHAOS_CAMPAIGN_H_
