// Reproduces Figure 10: recovery latency of a correlated failure under PPA
// replication plans that consume different amounts of active-replication
// resources: PPA-1.0 (every task replicated), PPA-0.5 (half, chosen by the
// structure-aware planner), PPA-0 (purely passive). PPA-0.5-active is the
// recovery latency of just the actively replicated tasks in the PPA-0.5
// plan — the moment tentative outputs can start flowing.

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

  // The planner picks the half plan per run; PPA-1.0 replicates every
  // task and PPA-0 none.
  struct PlanRow {
    const char* label;
    double replica_share;
    bool report_active_only;
  };
  const PlanRow rows[] = {
      {"PPA-1.0", 1.0, false},
      {"PPA-0.5-active", 0.5, true},
      {"PPA-0.5", 0.5, false},
      {"PPA-0", 0.0, false},
  };

  struct Cell {
    const PlanRow* row;
    int interval;
  };
  std::vector<Cell> cells;
  for (const PlanRow& row : rows) {
    for (int interval : {5, 15, 30}) {
      cells.push_back(Cell{&row, interval});
    }
  }

  const backend::BackendKind backend_kind = driver.backend_kind();
  for (double rate : {1000.0, 2000.0}) {
    std::vector<StatusOr<Fig6Result>> results =
        driver.Map<StatusOr<Fig6Result>>(
            static_cast<int>(cells.size()),
            [&cells, rate, backend_kind](int i) {
              const Cell& cell = cells[static_cast<size_t>(i)];
              Fig6Options options;
              options.config = bench::PaperJobConfig(FtMode::kPpa);
              options.config.checkpoint_interval =
                  Duration::Seconds(cell.interval);
              options.rate_per_task = rate;
              options.correlated = true;
              options.replica_share = cell.row->replica_share;
              return RunFig6(options, backend_kind);
            });

    std::printf(
        "Figure 10%s: correlated-failure recovery latency (s), window 30 "
        "s, rate %.0f tuples/s\n",
        rate == 1000.0 ? "(a)" : "(b)", rate);
    std::printf("%-18s %12s %12s %12s\n", "plan", "cp=5s", "cp=15s",
                "cp=30s");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i % 3 == 0) {
        std::printf("%-18s", cell.row->label);
      }
      StatusOr<Fig6Result>& result = results[i];
      if (!result.ok()) {
        std::printf(" %12s", result.status().ToString().c_str());
      } else {
        const Duration latency = cell.row->report_active_only
                                     ? result->active_latency
                                     : result->total_latency;
        std::printf(" %12.2f", latency.seconds());
        char label[64];
        std::snprintf(label, sizeof(label), "%s/cp%ds/r%.0f",
                      cell.row->label, cell.interval, rate);
        driver.metrics().Add(label, std::move(result->metrics),
                             std::move(result->fidelity));
        // Capture the partially-replicated plan: PPA-1.0 fails over
        // instantly and never degrades, while PPA-0.5 shows the paper's
        // story — a tentative window bridged by the active half.
        if (cell.row->replica_share == 0.5 &&
            !cell.row->report_active_only) {
          driver.traces().Capture(std::move(result->chrome_trace));
        }
      }
      if (i % 3 == 2) {
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): PPA-1.0 < PPA-0.5 < PPA-0 overall; "
      "PPA-0.5-active is\nnearly as fast as PPA-1.0, so tentative outputs "
      "start up to an order of magnitude\nbefore full recovery completes.\n");
  return driver.Finish("fig10_ppa_recovery");
}
