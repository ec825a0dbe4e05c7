#ifndef PPA_RUNTIME_JOB_DEPS_H_
#define PPA_RUNTIME_JOB_DEPS_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "backend/execution_backend.h"
#include "runtime/node_pool.h"

namespace ppa {

/// Sentinel strand value: the job mints a private strand from the
/// backend at construction.
inline constexpr uint64_t kAutoStrand = ~0ull;

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

  /// The backend strand the job's events run on. One job must stay on
  /// one strand — that serialization is what keeps the threaded backend
  /// byte-identical to the sim oracle. kAutoStrand mints a fresh strand;
  /// the multi-tenant service instead puts all tenants of one shared
  /// pool on a single strand so their interleaving matches the sim.
  uint64_t strand = kAutoStrand;

  JobRuntimeDeps() = default;
  /// Private cluster on a fresh strand — the common single-job spelling.
  explicit JobRuntimeDeps(backend::ExecutionBackend* b) : backend(b) {}
  /// Shared-pool tenant on a fresh strand.
  JobRuntimeDeps(backend::ExecutionBackend* b, std::shared_ptr<NodePool> p)
      : backend(b), pool(std::move(p)) {}
  /// Shared-pool tenant pinned to an explicit strand (ClusterService).
  JobRuntimeDeps(backend::ExecutionBackend* b, std::shared_ptr<NodePool> p,
                 uint64_t s)
      : backend(b), pool(std::move(p)), strand(s) {}
};

}  // namespace ppa

#endif  // PPA_RUNTIME_JOB_DEPS_H_
