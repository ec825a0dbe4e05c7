#include "common/parallel_for.h"

#include <utility>

namespace ppa {
namespace {

// The fork runner of the drive loop on this thread, if any.
thread_local ForkRunner* tls_runner = nullptr;
// Set while this thread runs ParallelFor indices.
thread_local bool tls_in_block = false;

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const bool nested = MarkInParallelBlock(true);
  if (tls_runner != nullptr && !nested && n > 1) {
    tls_runner->RunFork(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
  }
  MarkInParallelBlock(nested);
}

ForkRunner* SetForkRunner(ForkRunner* runner) {
  return std::exchange(tls_runner, runner);
}

bool MarkInParallelBlock(bool in_block) {
  return std::exchange(tls_in_block, in_block);
}

bool InParallelBlock() { return tls_in_block; }

}  // namespace ppa
