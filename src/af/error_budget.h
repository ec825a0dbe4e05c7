#ifndef PPA_AF_ERROR_BUDGET_H_
#define PPA_AF_ERROR_BUDGET_H_

/// Approximate fault tolerance (AF): bounded-error recovery as a rival
/// mode beside PPA's exact passive/active split (DESIGN.md §17).
///
/// The contract follows AF-Stream (Cheng/Huang/Lee): a checkpoint may be
/// *skipped* — no blob persisted, upstream buffers trimmed as if it had
/// been taken — whenever the state drift a failure could forfeit stays
/// provably within a user error budget. The drift is accumulated by a
/// DivergenceTracker (divergence.h); this header holds the policy side:
/// the budget declaration, the skip gate, and the certified output-loss
/// bound reported when a task actually recovers from a thinned chain.

#include <cstdint>
#include <string_view>

#include "common/sim_time.h"
#include "common/status.h"
#include "topology/task_set.h"
#include "topology/topology.h"

namespace ppa {
namespace af {

/// How a job trades recovery exactness against checkpoint cost.
enum class RecoveryMode : uint8_t {
  /// Exact recovery: every due checkpoint is persisted and replay covers
  /// the full gap. This is the PPA contract and the default; the af
  /// machinery is completely inert.
  kPpa = 0,
  /// Bounded-error recovery: checkpoints are thinned within the error
  /// budget for every task. Requires a checkpoint-bearing ft_mode.
  kApprox = 1,
  /// PPA replicas keep the planner-selected high-weight tasks exact;
  /// every unreplicated (leaf / low-weight) task runs approximate.
  /// Requires ft_mode = kPpa.
  kHybrid = 2,
};

/// Stable wire/flag name: "ppa", "approx", or "hybrid".
[[nodiscard]] std::string_view RecoveryModeToString(RecoveryMode mode);
/// Parses the names RecoveryModeToString emits; InvalidArgument otherwise.
[[nodiscard]] StatusOr<RecoveryMode> RecoveryModeFromString(
    std::string_view name);

/// Conservative un-checkpointed state drift of a task since its last
/// persisted blob.
struct Divergence {
  int64_t records = 0;  // input records folded into unpersisted state
};

/// The user-declared divergence tolerance, an absolute record count at
/// both task and job granularity. A checkpoint may be skipped only while
/// both hold. Validated via Validate() wherever a JobConfig is accepted.
struct ErrorBudgetSpec {
  /// Per-task bound: max records a single task may leave unpersisted
  /// before a checkpoint is forced.
  int64_t task_divergence_records = 5000;
  /// Per-job bound: max summed unpersisted records across every task
  /// currently running ahead of its persisted coverage.
  int64_t job_divergence_records = 50000;
  /// Cap on the certified output-loss bound (1 - OF of the set of tasks
  /// running ahead of persisted coverage). Range [0, 1].
  double max_certified_loss = 0.25;

  [[nodiscard]] Status Validate() const;
};

/// The skip gate: true when skipping a checkpoint is within `spec` for a
/// task that has `task_records` unpersisted while the job-wide at-risk
/// drift (including this task) is `job_records`. A pure function of its
/// arguments, so it is trivially deterministic across backends.
[[nodiscard]] bool AllowSkip(const ErrorBudgetSpec& spec,
                             int64_t task_records, int64_t job_records);

/// The certified per-batch output-loss bound when the tasks in
/// `diverged` resume from thinned chains: the rate-weighted fidelity
/// loss if their forfeited contribution were missing entirely, i.e.
/// 1 - OF(topology, diverged). Conservative — real divergence decays as
/// stale window slices evict — and a pure function of the topology, so
/// the bound certified at skip time still holds at recovery time.
[[nodiscard]] double CertifiedLossBound(const Topology& topology,
                                        const TaskSet& diverged);

/// What an approximate recovery actually forfeited, reported into the
/// recovery timeline and checked by the chaos error-budget invariant.
struct ApproxCertificate {
  TaskId task = -1;
  int64_t restored_batch = 0;  // persisted chain coverage restored
  int64_t resumed_batch = 0;   // thinned frontier fast-forwarded to
  Divergence forfeited;        // drift in [restored_batch, resumed_batch)
  double certified_loss = 0.0;  // CertifiedLossBound over {task}
  TimePoint at;                 // recovery completion time
};

}  // namespace af
}  // namespace ppa

#endif  // PPA_AF_ERROR_BUDGET_H_
