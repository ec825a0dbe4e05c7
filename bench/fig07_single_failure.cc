// Reproduces Figure 7: recovery latency of a single-node failure on the
// Fig. 6 synthetic workload, comparing active replication (5 s / 30 s
// replica sync), checkpointing (5 / 15 / 30 s intervals), and Storm-style
// source replay, across window intervals (10 s / 30 s) and source rates
// (1000 / 2000 tuples/s per source task).

#include "bench/driver.h"
#include "bench/technique_grid.h"

int main(int argc, char** argv) {
  ppa::bench::Driver driver = ppa::bench::Driver::FromArgs(&argc, argv);
  ppa::bench::TechniqueGrid grid;
  grid.title = "Figure 7: recovery latency of single node failure (seconds)";
  grid.expected =
      "Expected shape (paper): active << checkpoint; checkpoint latency "
      "grows with\ninterval and rate; Storm grows with window and rate and "
      "is the worst at 30s windows.";
  return ppa::bench::RunTechniqueGrid(grid, "fig07_single_failure", &driver);
}
