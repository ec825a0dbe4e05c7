#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ppa {

ThreadPool::ThreadPool(int num_threads, std::function<void(int)> body)
    : body_(std::move(body)) {
  PPA_CHECK(body_ != nullptr) << "ThreadPool requires a thread body";
  const int n = std::max(num_threads, 1);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { body_(i); });
  }
}

ThreadPool::~ThreadPool() {
  for (std::thread& t : threads_) {
    t.join();
  }
}

int ThreadPool::DefaultParallelism() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace ppa
