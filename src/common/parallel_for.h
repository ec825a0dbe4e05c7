#ifndef PPA_COMMON_PARALLEL_FOR_H_
#define PPA_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace ppa {

/// What a ParallelFor on this thread hands its indices to. An execution
/// backend's drive loop installs itself as the thread's runner for the
/// duration of the drive (SetForkRunner), so a ParallelFor in one of its
/// callbacks reaches it; nothing below the backend layer names a backend.
class ForkRunner {
 public:
  /// Runs `fn` over [0, n) and returns once every call has finished. The
  /// calling thread is already marked as inside a block.
  virtual void RunFork(size_t n, const std::function<void(size_t)>& fn) = 0;

 protected:
  ~ForkRunner() = default;
};

/// Runs `fn(i)` for every i in [0, n) and returns once every call has
/// finished: the fork-join a StreamingJob runs each operator level through
/// and a task checkpoint encodes its parts through (DESIGN.md §16). With a
/// fork runner installed on the calling thread, n > 1 and the thread not
/// already inside a block, the runner gets the indices (a ThreadedBackend
/// claims them in contiguous blocks across its driving and helper
/// threads); everywhere else (the sim, outside a drive, a call nested in
/// another ParallelFor) it is a plain loop in index order. Calls on
/// distinct indices may run concurrently, so `fn` must only write state
/// its index owns, and must not schedule, cancel or drive (debug builds
/// check the last three).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// Installs `runner` (nullptr: none) as the calling thread's fork runner
/// and returns the previous one, which the caller restores when done.
ForkRunner* SetForkRunner(ForkRunner* runner);

/// Marks the calling thread as running ParallelFor indices (or not) and
/// returns the previous mark. A fork runner's helper threads mark
/// themselves for their whole life.
bool MarkInParallelBlock(bool in_block);

/// True while the calling thread runs ParallelFor indices.
bool InParallelBlock();

}  // namespace ppa

#endif  // PPA_COMMON_PARALLEL_FOR_H_
