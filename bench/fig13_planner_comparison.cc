// Reproduces Figure 13: worst-case OF and measured tentative accuracy of
// the plans produced by the optimal dynamic-programming planner (DP), the
// structure-aware planner (SA), and the structure-agnostic greedy planner,
// on Q1 and Q2. Reduced-parallelism variants of the queries keep the
// exponential DP tractable (Sec. IV-A; the paper likewise skips DP on the
// large random topologies of Fig. 14).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/accuracy_util.h"
#include "bench/driver.h"
#include "planner/planner.h"

namespace {

using namespace ppa;

/// One (consumption, planner) cell. `planned` is false when the planner
/// refused the topology (DP beyond its exponential-search cap) — the
/// table shows n/a for that cell.
struct CellResult {
  bool planned = false;
  double of = -1;
  bench::AccuracyResult accuracy;
};

void RunQuery(const char* title, const char* tag,
              const bench::AccuracyExperiment& experiment,
              bench::Driver* driver) {
  const Topology& topo = experiment.topo;
  const backend::BackendKind backend_kind = driver->backend_kind();
  const double consumptions[] = {0.2, 0.4, 0.6, 0.8};
  const PlannerKind kinds[] = {PlannerKind::kDynamicProgramming,
                               PlannerKind::kStructureAware,
                               PlannerKind::kGreedy};
  // Cell i: consumption i/3, planner i%3 (DP, SA, Greedy).
  const int cell_count = 12;
  std::vector<StatusOr<CellResult>> results =
      driver->Map<StatusOr<CellResult>>(
          cell_count,
          [&consumptions, &kinds, &topo, &experiment,
           backend_kind](int i) -> StatusOr<CellResult> {
            const double consumption = consumptions[i / 3];
            const int budget =
                static_cast<int>(consumption * topo.num_tasks() + 0.5);
            std::unique_ptr<Planner> planner = CreatePlanner(kinds[i % 3]);
            CellResult cell;
            auto plan = planner->Plan(PlanRequest(topo, budget));
            if (!plan.ok()) {
              return cell;  // DP may exceed its exponential-search cap.
            }
            cell.planned = true;
            cell.of = plan->output_fidelity;
            PPA_ASSIGN_OR_RETURN(
                cell.accuracy,
                bench::MeasureTentativeAccuracy(experiment, plan->replicated,
                                                backend_kind));
            return cell;
          });

  std::printf("%s (%d tasks)\n", title, topo.num_tasks());
  std::printf("%-12s", "consumption");
  for (const char* col : {"DP-OF", "SA-OF", "Greedy-OF", "DP-Acc", "SA-Acc",
                          "Greedy-Acc"}) {
    std::printf(" %10s", col);
  }
  std::printf("\n");

  for (int row = 0; row < 4; ++row) {
    const double consumption = consumptions[row];
    double of[3] = {-1, -1, -1};
    double acc[3] = {-1, -1, -1};
    for (int p = 0; p < 3; ++p) {
      StatusOr<CellResult>& result =
          results[static_cast<size_t>(row * 3 + p)];
      PPA_CHECK_OK(result.status());
      if (!result->planned) {
        continue;
      }
      of[p] = result->of;
      acc[p] = result->accuracy.accuracy;
      char label[64];
      std::snprintf(label, sizeof(label), "%s/%s/c%.1f", tag,
                    std::string(PlannerKindToString(kinds[p])).c_str(),
                    consumption);
      driver->metrics().Add(label, std::move(result->accuracy.metrics));
      driver->traces().Capture(std::move(result->accuracy.chrome_trace));
    }
    std::printf("%-12.1f", consumption);
    for (double v : {of[0], of[1], of[2], acc[0], acc[1], acc[2]}) {
      if (v < 0) {
        std::printf(" %10s", "n/a");
      } else {
        std::printf(" %10.3f", v);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  RunQuery("Figure 13(a): Q1 top-100 aggregate query", "q1",
           bench::Q1Experiment(TopKParallelism::Reduced()), &driver);
  RunQuery("Figure 13(b): Q2 incident detection query", "q2",
           bench::Q2Experiment(IncidentParallelism::Reduced()), &driver);

  std::printf(
      "Expected shape (paper): SA tracks the optimal DP closely in both OF "
      "and measured\naccuracy; Greedy is clearly worse, especially at small "
      "budgets where its picks\ndo not form complete MC-trees.\n");
  return driver.Finish("fig13_planner_comparison");
}
