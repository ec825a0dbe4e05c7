#ifndef PPA_BACKEND_TIMER_QUEUE_H_
#define PPA_BACKEND_TIMER_QUEUE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/sim_time.h"

namespace ppa {
namespace backend {

/// Pending timers in the one order every backend fires them: ascending
/// (firing time, schedule sequence). Two timers due at the same instant
/// come out in the order they were pushed, which makes the simulator
/// reproducible and is the per-strand order the threaded backend must
/// match (DESIGN.md §16). Sequence numbers start at 1 and double as timer
/// ids. Knows nothing about clocks, drives or threads; not thread-safe.
class TimerQueue {
 public:
  /// Firing order: time first, then schedule sequence.
  struct Key {
    TimePoint at;
    uint64_t id = 0;
    auto operator<=>(const Key&) const = default;
  };
  /// A pending callback and the strand it runs on.
  struct Timer {
    uint64_t strand = 0;
    std::function<void()> fn;
  };
  using iterator = std::map<Key, Timer>::iterator;

  /// Queues `fn` on `strand`, due at `at`; returns the timer's id.
  uint64_t Push(TimePoint at, uint64_t strand, std::function<void()> fn);

  /// Drops a pending timer and returns its strand; nullopt if `id` already
  /// ran, was already cancelled, or never existed.
  std::optional<uint64_t> Cancel(uint64_t id);

  /// Pending timers in firing order.
  iterator begin() { return timers_.begin(); }
  iterator end() { return timers_.end(); }

  /// Removes the timer at `it` and moves its callback out.
  std::function<void()> Take(iterator it);

  /// Number of pending timers.
  size_t size() const { return timers_.size(); }
  bool empty() const { return timers_.empty(); }

  /// Drops every pending timer (ids are never reused).
  void Clear();

 private:
  std::map<Key, Timer> timers_;
  /// id -> entry, so Cancel needs no search (map iterators stay valid
  /// across other inserts and erases).
  std::unordered_map<uint64_t, iterator> index_;
  uint64_t next_id_ = 1;
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_TIMER_QUEUE_H_
