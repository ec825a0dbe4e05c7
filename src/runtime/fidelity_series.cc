#include "runtime/fidelity_series.h"

#include "fidelity/metrics.h"
#include "topology/task_set.h"

namespace ppa {

std::vector<obs::FidelitySample> DeriveFidelitySeries(
    const Topology& topology, const obs::TraceLog& trace) {
  using obs::TraceEventKind;
  std::vector<obs::FidelitySample> series;
  TaskSet failed(topology.num_tasks());
  bool window_open = false;
  for (const obs::TraceEvent& e : trace.events()) {
    const bool tentative = e.kind == TraceEventKind::kSinkBatchTentative;
    if (e.kind == TraceEventKind::kTaskFailed) {
      failed.Add(e.task);
    } else if (e.kind == TraceEventKind::kRecoveryDone) {
      failed.Remove(e.task);
    } else if (e.kind == TraceEventKind::kTentativeWindowBegin ||
               e.kind == TraceEventKind::kTentativeWindowEnd) {
      window_open = e.kind == TraceEventKind::kTentativeWindowBegin;
    } else if (tentative || e.kind == TraceEventKind::kSinkBatchStable) {
      failed.Remove(e.task);
      // A delivery's own window events follow it, so `window_open` is the
      // state it saw. Stable deliveries outside a window are steady state
      // (OF == IC == 1) and yield no sample.
      if (tentative || window_open) {
        const bool degraded = !failed.empty();
        series.push_back(obs::FidelitySample{
            e.at, e.a, e.task, tentative,
            degraded ? ComputeOutputFidelity(topology, failed) : 1.0,
            degraded ? ComputeInternalCompleteness(topology, failed) : 1.0,
            failed.size()});
      }
    }
  }
  return series;
}

}  // namespace ppa
