#ifndef PPA_RUNTIME_JOB_DEPS_H_
#define PPA_RUNTIME_JOB_DEPS_H_

#include <memory>
#include <utility>

#include "backend/execution_backend.h"
#include "runtime/node_pool.h"

namespace ppa {

/// Everything a StreamingJob needs from its environment, bundled so the
/// constructor stays backend-neutral (DESIGN.md §16). The referenced
/// backend (and pool, when shared) must outlive the job.
struct JobRuntimeDeps {
  /// Runs the job's timers and callbacks. Required.
  backend::ExecutionBackend* backend = nullptr;

  /// The node pool the job schedules onto. Null means "private cluster":
  /// the job builds its own pool from the config's cluster-shape fields.
  /// A shared pool (multi-tenant ClusterService) makes node liveness,
  /// domains, and load common to every job constructed over it.
  std::shared_ptr<NodePool> pool;

  JobRuntimeDeps() = default;
  /// Private cluster — the common single-job spelling.
  explicit JobRuntimeDeps(backend::ExecutionBackend* b) : backend(b) {}
  /// Shared-pool tenant (ClusterService).
  JobRuntimeDeps(backend::ExecutionBackend* b, std::shared_ptr<NodePool> p)
      : backend(b), pool(std::move(p)) {}
};

}  // namespace ppa

#endif  // PPA_RUNTIME_JOB_DEPS_H_
