#ifndef PPA_EXP_PARALLEL_RUNNER_H_
#define PPA_EXP_PARALLEL_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace ppa {
namespace exp {

/// Fans independent experiment runs across threads and collects their
/// results in index order, so the output of a mapped sweep is identical
/// no matter how many threads execute it. The mapped function must be
/// self-contained per index: any shared state it touches must be
/// immutable or synchronized by the caller.
class ParallelRunner {
 public:
  /// `jobs` <= 1 runs every mapped function inline on the calling thread.
  explicit ParallelRunner(int jobs = 1) : jobs_(std::max(jobs, 1)) {}

  /// Most threads one Map runs on (1 = inline on the caller).
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Runs `fn(0) .. fn(count - 1)` and returns their results indexed by
  /// argument — element i is always fn(i)'s result, regardless of the
  /// order threads finished. With jobs() > 1, min(jobs(), count) threads
  /// claim indices from one counter; every index runs, and an exception
  /// raised by fn is captured and rethrown here for the lowest throwing
  /// index once all threads have been joined.
  template <typename T>
  std::vector<T> Map(int count, const std::function<T(int)>& fn) {
    PPA_CHECK(count >= 0);
    std::vector<T> results;
    results.reserve(static_cast<size_t>(count));
    if (jobs_ == 1 || count <= 1) {
      for (int i = 0; i < count; ++i) {
        results.push_back(fn(i));
      }
      return results;
    }
    std::vector<std::packaged_task<T()>> tasks;
    tasks.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      tasks.emplace_back([&fn, i] { return fn(i); });
    }
    std::atomic<int> next{0};
    {
      ThreadPool pool(std::min(jobs_, count), [&tasks, &next, count](int) {
        for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          tasks[static_cast<size_t>(i)]();
        }
      });
    }  // joined: every task has run
    for (std::packaged_task<T()>& task : tasks) {
      results.push_back(task.get_future().get());
    }
    return results;
  }

 private:
  int jobs_;
};

}  // namespace exp
}  // namespace ppa

#endif  // PPA_EXP_PARALLEL_RUNNER_H_
