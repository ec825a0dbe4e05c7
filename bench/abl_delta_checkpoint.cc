// Ablation A2: delta checkpoints (Hwang et al., cited Sec. VII) vs full
// checkpoints on the Fig. 6 workload. Deltas make short checkpoint
// intervals affordable — the knob Fig. 9 shows to be prohibitively
// expensive with full snapshots — at the price of a longer state-load
// chain during recovery.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

int main(int argc, char** argv) {
  using namespace ppa;
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  const int intervals[] = {1, 5, 15};
  const backend::BackendKind backend_kind = driver.backend_kind();
  // Cell i: interval i/2; even = full checkpoints, odd = delta.
  std::vector<bench::Fig6Result> results = driver.Map<bench::Fig6Result>(
      6, [&intervals, backend_kind](int i) {
        // A single-node failure on the Fig. 6 workload, checkpoint mode.
        bench::Fig6Options options;
        options.config.checkpoint_interval =
            Duration::Seconds(intervals[i / 2]);
        options.config.delta_checkpoints = (i % 2) == 1;
        options.config.max_delta_chain = 8;
        options.fail_at_seconds = 40.4;
        StatusOr<bench::Fig6Run> run =
            bench::RunFig6Drill(options, backend_kind);
        PPA_CHECK_OK(run.status());
        PPA_CHECK(run->job->recovery_reports().size() == 1);
        return bench::Fig6ResultOf(*run);
      });

  std::printf(
      "Ablation A2: full vs delta checkpoints, window 30 s, 1000 "
      "tuples/s\n");
  std::printf("%-10s %12s %12s %14s %14s\n", "interval", "full ratio",
              "delta ratio", "full rec (s)", "delta rec (s)");
  for (size_t i = 0; i < std::size(intervals); ++i) {
    bench::Fig6Result& full = results[i * 2];
    bench::Fig6Result& delta = results[i * 2 + 1];
    for (bench::Fig6Result* cell : {&full, &delta}) {
      char label[64];
      std::snprintf(label, sizeof(label), "%s/cp%ds",
                    cell == &delta ? "delta" : "full", intervals[i]);
      driver.metrics().Add(label, std::move(cell->metrics));
      driver.traces().Capture(std::move(cell->chrome_trace));
    }
    std::printf("%-10d %12.3f %12.3f %14.2f %14.2f\n", intervals[i],
                full.checkpoint_cpu_ratio, delta.checkpoint_cpu_ratio,
                full.total_latency.seconds(), delta.total_latency.seconds());
  }
  std::printf(
      "\nExpected: delta checkpointing slashes the CPU ratio (it only "
      "serializes the\nwindow's fresh slices), making 1-second intervals "
      "practical; recovery latency\nstays comparable (shorter replay, "
      "slightly larger state-load chain).\n");
  return driver.Finish("abl_delta_checkpoint");
}
