#include "af/divergence.h"

#include "common/logging.h"

namespace ppa {
namespace af {

void DivergenceTracker::Reset(int num_tasks) {
  drift_.assign(static_cast<size_t>(num_tasks), Divergence{});
}

void DivergenceTracker::Observe(int64_t task, int64_t records) {
  PPA_CHECK(task >= 0 && static_cast<size_t>(task) < drift_.size());
  drift_[static_cast<size_t>(task)].records += records;
}

void DivergenceTracker::Clear(int64_t task) {
  PPA_CHECK(task >= 0 && static_cast<size_t>(task) < drift_.size());
  drift_[static_cast<size_t>(task)] = Divergence{};
}

const Divergence& DivergenceTracker::OfTask(int64_t task) const {
  PPA_CHECK(task >= 0 && static_cast<size_t>(task) < drift_.size());
  return drift_[static_cast<size_t>(task)];
}

}  // namespace af
}  // namespace ppa
