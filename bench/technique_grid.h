#ifndef PPA_BENCH_TECHNIQUE_GRID_H_
#define PPA_BENCH_TECHNIQUE_GRID_H_

#include <cstdio>
#include <optional>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

namespace ppa {
namespace bench {

/// One of the two recovery-latency figures that sweep the fault-tolerance
/// techniques over window intervals (10 s / 30 s) and source rates
/// (1000 / 2000 tuples/s per source task) on the Fig. 6 drill.
struct TechniqueGrid {
  /// First line of the table.
  const char* title = "";
  /// Correlated failure of all 15 synthetic nodes (Fig. 8) vs one node
  /// (Fig. 7).
  bool correlated = false;
  /// Record each run's fidelity series beside its metrics snapshot.
  bool record_fidelity = false;
  /// Capture the trace of the first run in this mode (nullopt: of the
  /// first run).
  std::optional<FtMode> trace_mode;
  /// The paper's shape of the result, printed under the table.
  const char* expected = "";
};

/// Runs the grid across the driver's workers on its backend, prints the
/// table, records metrics and a trace, and returns Driver::Finish's exit
/// code for `benchmark`.
inline int RunTechniqueGrid(const TechniqueGrid& grid,
                            std::string_view benchmark, Driver* driver) {
  struct Technique {
    const char* label;
    FtMode mode;
    Duration checkpoint_interval;
    Duration sync_interval;
  };
  const Technique techniques[] = {
      {"Active-5s", FtMode::kActiveReplication, Duration::Seconds(15),
       Duration::Seconds(5)},
      {"Active-30s", FtMode::kActiveReplication, Duration::Seconds(15),
       Duration::Seconds(30)},
      {"Checkpoint-5s", FtMode::kCheckpoint, Duration::Seconds(5),
       Duration::Seconds(5)},
      {"Checkpoint-15s", FtMode::kCheckpoint, Duration::Seconds(15),
       Duration::Seconds(5)},
      {"Checkpoint-30s", FtMode::kCheckpoint, Duration::Seconds(30),
       Duration::Seconds(5)},
      {"Storm", FtMode::kSourceReplay, Duration::Seconds(15),
       Duration::Seconds(5)},
  };

  struct Cell {
    const Technique* tech;
    int64_t window;
    double rate;
  };
  std::vector<Cell> cells;
  for (const Technique& tech : techniques) {
    for (int64_t window : {10, 30}) {
      for (double rate : {1000.0, 2000.0}) {
        cells.push_back(Cell{&tech, window, rate});
      }
    }
  }

  const backend::BackendKind backend_kind = driver->backend_kind();
  std::vector<StatusOr<Fig6Result>> results =
      driver->Map<StatusOr<Fig6Result>>(
          static_cast<int>(cells.size()), [&cells, &grid, backend_kind](int i) {
            const Cell& cell = cells[static_cast<size_t>(i)];
            Fig6Options options;
            options.config = PaperJobConfig(cell.tech->mode);
            options.config.checkpoint_interval =
                cell.tech->checkpoint_interval;
            options.config.replica_sync_interval = cell.tech->sync_interval;
            options.config.window_batches = cell.window;
            options.rate_per_task = cell.rate;
            options.correlated = grid.correlated;
            return RunFig6(options, backend_kind);
          });

  std::printf("%s\n", grid.title);
  std::printf("%-15s %14s %14s %14s %14s\n", "technique", "win10,r1000",
              "win10,r2000", "win30,r1000", "win30,r2000");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (i % 4 == 0) {
      std::printf("%-15s", cell.tech->label);
    }
    StatusOr<Fig6Result>& result = results[i];
    if (!result.ok()) {
      std::printf(" %14s", result.status().ToString().c_str());
    } else {
      std::printf(" %14.2f", result->total_latency.seconds());
      char label[64];
      std::snprintf(label, sizeof(label), "%s/win%lld/r%.0f",
                    cell.tech->label, static_cast<long long>(cell.window),
                    cell.rate);
      if (grid.record_fidelity) {
        driver->metrics().Add(label, std::move(result->metrics),
                              std::move(result->fidelity));
      } else {
        driver->metrics().Add(label, std::move(result->metrics));
      }
      if (!grid.trace_mode.has_value() ||
          cell.tech->mode == *grid.trace_mode) {
        driver->traces().Capture(std::move(result->chrome_trace));
      }
    }
    if (i % 4 == 3) {
      std::printf("\n");
    }
  }
  std::printf("\n%s\n", grid.expected);
  return driver->Finish(benchmark);
}

}  // namespace bench
}  // namespace ppa

#endif  // PPA_BENCH_TECHNIQUE_GRID_H_
