// Ablation A5: output-buffer occupancy vs checkpoint interval. Upstream
// output buffers exist so failed tasks can replay (Sec. II-B); the
// checkpoint protocol trims them. This bench quantifies the memory the
// trimming protocol saves, and what running without checkpoints (Storm
// source replay) costs instead.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

namespace {

using namespace ppa;

struct CellResult {
  int64_t peak_buffered = 0;
  bench::Fig6Result run;
};

/// A failure-free 90 s run of the Fig. 6 workload, window 30 s.
CellResult RunOne(FtMode mode, int interval_seconds,
                  backend::BackendKind backend_kind) {
  bench::Fig6Options options;
  options.config = bench::PaperJobConfig(mode);
  options.config.checkpoint_interval = Duration::Seconds(interval_seconds);
  options.inject_failure = false;
  options.run_for_seconds = 90.0;
  StatusOr<bench::Fig6Run> run = bench::RunFig6Drill(options, backend_kind);
  PPA_CHECK_OK(run.status());
  return CellResult{run->job->PeakBufferedTuples(), bench::Fig6ResultOf(*run)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  const int intervals[] = {2, 5, 15, 30};
  const backend::BackendKind backend_kind = driver.backend_kind();
  // Cells 0-3: checkpoint mode per interval; cell 4: Storm source replay.
  std::vector<CellResult> results = driver.Map<CellResult>(
      5, [&intervals, backend_kind](int i) {
        if (i < 4) {
          return RunOne(FtMode::kCheckpoint, intervals[i], backend_kind);
        }
        return RunOne(FtMode::kSourceReplay, 15, backend_kind);
      });

  std::printf(
      "Ablation A5: peak upstream-buffer occupancy (tuples), window 30 s, "
      "1000 tuples/s, 90 s run\n");
  std::printf("%-24s %18s\n", "configuration", "peak buffered");
  for (size_t i = 0; i < std::size(intervals); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "checkpoint every %ds",
                  intervals[i]);
    driver.metrics().Add(label, std::move(results[i].run.metrics));
    driver.traces().Capture(std::move(results[i].run.chrome_trace));
    std::printf("%-24s %18lld\n", label,
                static_cast<long long>(results[i].peak_buffered));
  }
  driver.metrics().Add("source replay", std::move(results[4].run.metrics));
  driver.traces().Capture(std::move(results[4].run.chrome_trace));
  std::printf("%-24s %18lld\n", "source replay (Storm)",
              static_cast<long long>(results[4].peak_buffered));
  std::printf(
      "\nExpected: buffers grow linearly with the checkpoint interval "
      "(trimming waits\nfor downstream checkpoints); Storm's no-checkpoint "
      "mode must retain a full\nreplay window instead.\n");
  return driver.Finish("abl_buffer_growth");
}
