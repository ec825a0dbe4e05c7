#ifndef PPA_AF_DIVERGENCE_H_
#define PPA_AF_DIVERGENCE_H_

/// Per-task accounting of un-checkpointed state drift (DESIGN.md §17).
/// The StreamingJob feeds every processed batch in here when a
/// non-exact RecoveryMode is active; a persisted checkpoint clears the
/// task back to zero. Between a skipped checkpoint and the next
/// persisted blob, the tracked drift is exactly what a failure would
/// forfeit — the quantity AllowSkip gates on and the certificate
/// reports.

#include <cstdint>
#include <vector>

#include "af/error_budget.h"

namespace ppa {
namespace af {

/// Tracks each task's Divergence.
class DivergenceTracker {
 public:
  DivergenceTracker() = default;

  /// (Re)initializes tracking for `num_tasks` tasks with zero drift.
  void Reset(int num_tasks);

  /// Folds `records` processed records into `task`'s drift.
  void Observe(int64_t task, int64_t records);

  /// Clears `task`'s drift after a persisted blob (or after a recovery
  /// consumed the forfeited drift).
  void Clear(int64_t task);

  [[nodiscard]] const Divergence& OfTask(int64_t task) const;

  [[nodiscard]] int num_tasks() const {
    return static_cast<int>(drift_.size());
  }

 private:
  std::vector<Divergence> drift_;
};

}  // namespace af
}  // namespace ppa

#endif  // PPA_AF_DIVERGENCE_H_
