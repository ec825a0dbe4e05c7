// Ablation A3: effect of the batch interval on recovery latency and
// checkpoint cost. The paper adopts batch processing for deterministic
// replay (Sec. V-B, citing Das et al. for batch sizing); this ablation
// shows the trade-off our engine inherits: shorter batches detect and
// bound loss at finer granularity but do not change replay volume, while
// the checkpoint-cost ratio is insensitive to batching.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

int main(int argc, char** argv) {
  using namespace ppa;
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  const double batch_intervals[] = {0.25, 0.5, 1.0, 2.0};
  const backend::BackendKind backend_kind = driver.backend_kind();
  std::vector<bench::Fig6Result> results = driver.Map<bench::Fig6Result>(
      static_cast<int>(std::size(batch_intervals)),
      [&batch_intervals, backend_kind](int i) {
        const double batch_seconds = batch_intervals[i];
        // A single-node failure on the Fig. 6 workload, checkpoint mode,
        // with a 10 s window at every batch size.
        bench::Fig6Options options;
        options.config.batch_interval = Duration::Seconds(batch_seconds);
        options.config.window_batches =
            static_cast<int64_t>(10.0 / batch_seconds);
        options.fail_at_seconds = 40.4;
        StatusOr<bench::Fig6Run> run =
            bench::RunFig6Drill(options, backend_kind);
        PPA_CHECK_OK(run.status());
        PPA_CHECK(run->job->recovery_reports().size() == 1);
        return bench::Fig6ResultOf(*run);
      });

  std::printf(
      "Ablation A3: batch interval vs recovery latency / checkpoint cost\n");
  std::printf("%-16s %16s %16s\n", "batch interval", "recovery (s)",
              "cp CPU ratio");
  for (size_t i = 0; i < std::size(batch_intervals); ++i) {
    bench::Fig6Result& cell = results[i];
    std::printf("%-16.2f %16.2f %16.3f\n", batch_intervals[i],
                cell.total_latency.seconds(), cell.checkpoint_cpu_ratio);
    char label[64];
    std::snprintf(label, sizeof(label), "batch%.2fs", batch_intervals[i]);
    driver.metrics().Add(label, std::move(cell.metrics));
    driver.traces().Capture(std::move(cell.chrome_trace));
  }
  std::printf(
      "\nExpected: replay volume (and hence latency) is set by the "
      "checkpoint age, not\nthe batch size; the ratio column stays nearly "
      "flat.\n");
  return driver.Finish("abl_batch_size");
}
