// Reproduces Figure 9: CPU cost of maintaining checkpoints relative to
// normal processing, as a function of the checkpoint interval (1/5/15/30 s)
// at 1000 and 2000 tuples/s per source task, window length 30 s.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

int main(int argc, char** argv) {
  using namespace ppa;
  using bench::Fig6Options;
  using bench::Fig6Result;
  using bench::RunFig6;

  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  struct Cell {
    int interval;
    double rate;
  };
  std::vector<Cell> cells;
  for (int interval : {1, 5, 15, 30}) {
    for (double rate : {1000.0, 2000.0}) {
      cells.push_back(Cell{interval, rate});
    }
  }

  const backend::BackendKind backend_kind = driver.backend_kind();
  std::vector<StatusOr<Fig6Result>> results =
      driver.Map<StatusOr<Fig6Result>>(
          static_cast<int>(cells.size()), [&cells, backend_kind](int i) {
            const Cell& cell = cells[static_cast<size_t>(i)];
            Fig6Options options;  // PaperJobConfig's 30 s window.
            options.config.checkpoint_interval =
                Duration::Seconds(cell.interval);
            options.rate_per_task = cell.rate;
            options.inject_failure = false;
            options.run_for_seconds = 90.0;
            return RunFig6(options, backend_kind);
          });

  std::printf(
      "Figure 9: checkpoint CPU / processing CPU ratio, window 30 s\n");
  std::printf("%-20s %16s %16s\n", "checkpoint interval", "1000 tuples/s",
              "2000 tuples/s");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (i % 2 == 0) {
      std::printf("%-20d", cell.interval);
    }
    StatusOr<Fig6Result>& result = results[i];
    if (!result.ok()) {
      std::printf(" %16s", result.status().ToString().c_str());
    } else {
      std::printf(" %16.3f", result->checkpoint_cpu_ratio);
      char label[64];
      std::snprintf(label, sizeof(label), "cp%ds/r%.0f", cell.interval,
                    cell.rate);
      driver.metrics().Add(label, std::move(result->metrics));
      driver.traces().Capture(std::move(result->chrome_trace));
    }
    if (i % 2 == 1) {
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected shape (paper): the ratio rises sharply as the interval "
      "shrinks;\n1-second checkpoints are prohibitively expensive.\n");
  return driver.Finish("fig09_checkpoint_cost");
}
