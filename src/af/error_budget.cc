#include "af/error_budget.h"

#include "fidelity/metrics.h"

namespace ppa {
namespace af {

std::string_view RecoveryModeToString(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kPpa:
      return "ppa";
    case RecoveryMode::kApprox:
      return "approx";
    case RecoveryMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

StatusOr<RecoveryMode> RecoveryModeFromString(std::string_view name) {
  if (name == "ppa") {
    return RecoveryMode::kPpa;
  }
  if (name == "approx") {
    return RecoveryMode::kApprox;
  }
  if (name == "hybrid") {
    return RecoveryMode::kHybrid;
  }
  return InvalidArgument("unknown recovery mode '" + std::string(name) +
                         "' (want ppa|approx|hybrid)");
}

Status ErrorBudgetSpec::Validate() const {
  if (task_divergence_records <= 0) {
    return InvalidArgument("task_divergence_records must be positive");
  }
  if (job_divergence_records <= 0) {
    return InvalidArgument("job_divergence_records must be positive");
  }
  if (max_certified_loss < 0.0 || max_certified_loss > 1.0) {
    return InvalidArgument("max_certified_loss must be in [0, 1]");
  }
  return OkStatus();
}

bool AllowSkip(const ErrorBudgetSpec& spec, int64_t task_records,
               int64_t job_records) {
  return task_records <= spec.task_divergence_records &&
         job_records <= spec.job_divergence_records;
}

double CertifiedLossBound(const Topology& topology, const TaskSet& diverged) {
  if (diverged.empty()) {
    return 0.0;
  }
  double loss = 1.0 - ComputeOutputFidelity(topology, diverged);
  if (loss < 0.0) {
    return 0.0;
  }
  return loss > 1.0 ? 1.0 : loss;
}

}  // namespace af
}  // namespace ppa
