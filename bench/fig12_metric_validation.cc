// Reproduces Figure 12: does the Output Fidelity metric predict the actual
// quality of tentative outputs better than the Internal Completeness
// baseline? For each resource budget, the structure-aware planner
// optimizes once for OF and once for IC (StructureAwareOptions::metric =
// LossModel::kInternalCompleteness); the table reports the metric
// values and the measured tentative accuracy of both plans on Q1 (top-100
// over the WorldCup-style log) and Q2 (incident-detection join).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/accuracy_util.h"
#include "bench/bench_util.h"
#include "bench/driver.h"
#include "fidelity/metrics.h"
#include "planner/structure_aware_planner.h"
#include "workloads/incident.h"
#include "workloads/topk.h"

namespace {

using namespace ppa;

JobConfig AccuracyJobConfig() {
  JobConfig config = bench::PaperJobConfig(FtMode::kPpa);
  config.num_worker_nodes = 25;
  config.num_standby_nodes = 25;
  config.checkpoint_interval = Duration::Seconds(10);
  // Slow passive recovery: the tentative phase must span the whole
  // measurement window.
  config.recovery.replay_rate_tuples_per_sec = 150.0;
  config.recovery.task_restart_delay = Duration::Seconds(10);
  return config;
}

/// One (consumption, metric) cell: the planned metric value and the
/// measured tentative accuracy of the resulting plan.
struct CellResult {
  double metric_value = 0.0;
  bench::AccuracyResult accuracy;
};

void RunQuery(const char* title, const char* tag, const Topology& topo,
              const bench::AccuracyExperiment& experiment,
              bench::Driver* driver) {
  const double consumptions[] = {0.2, 0.4, 0.6, 0.8};
  // Cell i: consumption i/2; even = OF-optimized, odd = IC-optimized.
  const int cell_count = 8;
  std::vector<StatusOr<CellResult>> results =
      driver->Map<StatusOr<CellResult>>(
          cell_count,
          [&consumptions, &topo,
           &experiment](int i) -> StatusOr<CellResult> {
            const double consumption = consumptions[i / 2];
            const bool use_ic = (i % 2) == 1;
            const int budget =
                static_cast<int>(consumption * topo.num_tasks() + 0.5);
            StructureAwareOptions options;
            if (use_ic) {
              options.metric = LossModel::kInternalCompleteness;
            }
            StructureAwarePlanner planner(options);
            PPA_ASSIGN_OR_RETURN(ReplicationPlan plan,
                                 planner.Plan(PlanRequest(topo, budget)));
            CellResult cell;
            cell.metric_value =
                use_ic ? PlanInternalCompleteness(topo, plan.replicated)
                       : PlanOutputFidelity(topo, plan.replicated);
            PPA_ASSIGN_OR_RETURN(
                cell.accuracy,
                bench::MeasureTentativeAccuracy(experiment,
                                                plan.replicated));
            return cell;
          });

  std::printf("%s\n", title);
  std::printf("%-12s %8s %14s %8s %14s\n", "consumption", "OF",
              "OF-SA-Accuracy", "IC", "IC-SA-Accuracy");
  for (int i = 0; i < cell_count; i += 2) {
    const double consumption = consumptions[i / 2];
    PPA_CHECK_OK(results[static_cast<size_t>(i)].status());
    PPA_CHECK_OK(results[static_cast<size_t>(i + 1)].status());
    CellResult& of_cell = *results[static_cast<size_t>(i)];
    CellResult& ic_cell = *results[static_cast<size_t>(i + 1)];
    char of_label[64];
    std::snprintf(of_label, sizeof(of_label), "%s/of/c%.1f", tag,
                  consumption);
    char ic_label[64];
    std::snprintf(ic_label, sizeof(ic_label), "%s/ic/c%.1f", tag,
                  consumption);
    driver->metrics().Add(of_label, std::move(of_cell.accuracy.metrics));
    driver->traces().Capture(std::move(of_cell.accuracy.chrome_trace));
    driver->metrics().Add(ic_label, std::move(ic_cell.accuracy.metrics));
    driver->traces().Capture(std::move(ic_cell.accuracy.chrome_trace));
    std::printf("%-12.1f %8.3f %14.3f %8.3f %14.3f\n", consumption,
                of_cell.metric_value, of_cell.accuracy.accuracy,
                ic_cell.metric_value, ic_cell.accuracy.accuracy);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  // ------------------------------------------------------------- Q1 --
  WorldCupSource::Options source;
  source.tuples_per_batch_per_task = 500;
  source.url_population = 1000;
  auto q1 = MakeTopKWorkload(source, /*count_window_batches=*/15, /*k=*/100);
  PPA_CHECK_OK(q1.status());
  bench::AccuracyExperiment q1_exp;
  q1_exp.make_job = [&q1](backend::ExecutionBackend* be) {
    auto job = std::make_unique<StreamingJob>(q1->topo, AccuracyJobConfig(),
                                              JobRuntimeDeps(be));
    PPA_CHECK_OK(BindTopKWorkload(*q1, job.get()));
    return job;
  };
  q1_exp.accuracy = PerBatchSetAccuracy;
  q1_exp.stale_grace_batches = 16;  // Top-k freshness window + 1.
  RunQuery("Figure 12(a): Q1 top-100 aggregate query", "q1", q1->topo,
           q1_exp, &driver);

  // ------------------------------------------------------------- Q2 --
  IncidentSchedule::Options schedule_options;
  schedule_options.num_segments = 300;
  schedule_options.num_users = 30000;
  static IncidentSchedule schedule(schedule_options);
  auto q2 = MakeIncidentWorkload(schedule_options,
                                 /*location_rate_per_task=*/1000);
  PPA_CHECK_OK(q2.status());
  bench::AccuracyExperiment q2_exp;
  q2_exp.make_job = [&q2](backend::ExecutionBackend* be) {
    auto job = std::make_unique<StreamingJob>(q2->topo, AccuracyJobConfig(),
                                              JobRuntimeDeps(be));
    PPA_CHECK_OK(BindIncidentWorkload(*q2, &schedule, job.get()));
    return job;
  };
  q2_exp.accuracy = DistinctSetAccuracy;
  q2_exp.stale_grace_batches = 4;  // Join speed-freshness window + 1.
  RunQuery("Figure 12(b): Q2 incident detection query", "q2", q2->topo,
           q2_exp, &driver);

  std::printf(
      "Expected shape (paper): on Q1 both metrics predict accuracy "
      "reasonably; on Q2\nIC keeps rising with budget while the measured "
      "accuracy of IC-optimized plans\nstalls - IC ignores the join's "
      "stream correlation, OF does not.\n");
  return driver.Finish("fig12_metric_validation");
}
