// Reproduces Figure 8: recovery latency of a correlated failure (all 15
// nodes hosting synthetic tasks fail simultaneously) on the Fig. 6
// workload, same technique/parameter grid as Figure 7.

#include "bench/driver.h"
#include "bench/technique_grid.h"

int main(int argc, char** argv) {
  ppa::bench::Driver driver = ppa::bench::Driver::FromArgs(&argc, argv);
  ppa::bench::TechniqueGrid grid;
  grid.title = "Figure 8: recovery latency of correlated failure (seconds)";
  grid.correlated = true;
  grid.record_fidelity = true;
  // Capture a checkpoint-mode run: its replay and recovery spans are the
  // interesting part; active replication's instant failover makes a flat
  // trace.
  grid.trace_mode = ppa::FtMode::kCheckpoint;
  grid.expected =
      "Expected shape (paper): same ordering as Fig. 7 but larger "
      "passive latencies\n(synchronized neighbour recoveries cascade); "
      "active replication stays flat and low.";
  return ppa::bench::RunTechniqueGrid(grid, "fig08_correlated_failure",
                                      &driver);
}
