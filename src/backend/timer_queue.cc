#include "backend/timer_queue.h"

#include <utility>

#include "common/logging.h"

namespace ppa {
namespace backend {

uint64_t TimerQueue::Push(TimePoint at, uint64_t strand,
                          std::function<void()> fn) {
  PPA_CHECK(fn != nullptr);
  const uint64_t id = next_id_++;
  index_.emplace(id, timers_.emplace(Key{at, id}, Timer{strand, std::move(fn)})
                         .first);
  return id;
}

std::optional<uint64_t> TimerQueue::Cancel(uint64_t id) {
  auto entry = index_.find(id);
  if (entry == index_.end()) {
    return std::nullopt;
  }
  const uint64_t strand = entry->second->second.strand;
  timers_.erase(entry->second);
  index_.erase(entry);
  return strand;
}

std::function<void()> TimerQueue::Take(iterator it) {
  std::function<void()> fn = std::move(it->second.fn);
  index_.erase(it->first.id);
  timers_.erase(it);
  return fn;
}

void TimerQueue::Clear() {
  timers_.clear();
  index_.clear();
}

}  // namespace backend
}  // namespace ppa
