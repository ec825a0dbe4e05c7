#include "fidelity/metrics.h"

#include <algorithm>

namespace ppa {

InfoLossResult PropagateInfoLoss(const Topology& topology,
                                 const TaskSet& failed, LossModel model) {
  InfoLossResult result;
  result.output_loss.assign(static_cast<size_t>(topology.num_tasks()), 0.0);

  // Scratch: per-input-stream accumulators, reused across tasks.
  // Keyed by upstream operator id.
  struct StreamAcc {
    OperatorId from_op;
    double rate_sum = 0.0;
    double weighted_loss = 0.0;
  };
  std::vector<StreamAcc> streams;

  for (OperatorId op_id : topology.topo_order()) {
    const OperatorInfo& oi = topology.op(op_id);
    const bool correlated =
        model == LossModel::kOutputFidelity &&
        oi.correlation == InputCorrelation::kCorrelated;
    for (TaskId t : oi.tasks) {
      if (failed.Contains(t)) {
        result.output_loss[static_cast<size_t>(t)] = 1.0;
        continue;
      }
      if (oi.upstream.empty()) {
        result.output_loss[static_cast<size_t>(t)] = 0.0;
        continue;
      }
      // Aggregate substream losses into per-input-stream losses (Eq. 1).
      streams.clear();
      for (int si : topology.task(t).in_substreams) {
        const Substream& s = topology.substreams()[si];
        auto it = std::find_if(streams.begin(), streams.end(),
                               [&](const StreamAcc& a) {
                                 return a.from_op == s.from_op;
                               });
        if (it == streams.end()) {
          streams.push_back(StreamAcc{s.from_op, 0.0, 0.0});
          it = streams.end() - 1;
        }
        const double loss = result.output_loss[static_cast<size_t>(s.from)];
        it->rate_sum += s.rate;
        it->weighted_loss += s.rate * loss;
      }
      double out_loss;
      if (correlated) {
        // Eq. 2: effective input is the product of the streams; the output
        // survives only on the surviving fraction of every stream.
        double survive = 1.0;
        for (const StreamAcc& a : streams) {
          const double stream_loss =
              a.rate_sum > 0 ? a.weighted_loss / a.rate_sum : 0.0;
          survive *= (1.0 - stream_loss);
        }
        out_loss = 1.0 - survive;
      } else {
        // Eq. 3: effective input is the union of the streams.
        double rate_total = 0.0;
        double loss_total = 0.0;
        for (const StreamAcc& a : streams) {
          rate_total += a.rate_sum;
          loss_total += a.weighted_loss;
        }
        out_loss = rate_total > 0 ? loss_total / rate_total : 0.0;
      }
      result.output_loss[static_cast<size_t>(t)] =
          std::clamp(out_loss, 0.0, 1.0);
    }
  }

  // Eq. 4 over all tasks of all output operators.
  double rate_sum = 0.0;
  double weighted_loss = 0.0;
  for (OperatorId sink : topology.sink_operators()) {
    for (TaskId t : topology.op(sink).tasks) {
      const double rate = topology.task(t).output_rate;
      rate_sum += rate;
      weighted_loss += rate * result.output_loss[static_cast<size_t>(t)];
    }
  }
  result.output_fidelity =
      rate_sum > 0 ? 1.0 - weighted_loss / rate_sum : 1.0;
  result.output_fidelity = std::clamp(result.output_fidelity, 0.0, 1.0);
  return result;
}

double ComputeOutputFidelity(const Topology& topology, const TaskSet& failed) {
  return PropagateInfoLoss(topology, failed, LossModel::kOutputFidelity)
      .output_fidelity;
}

double ComputeInternalCompleteness(const Topology& topology,
                                   const TaskSet& failed) {
  return PropagateInfoLoss(topology, failed, LossModel::kInternalCompleteness)
      .output_fidelity;
}

double PlanOutputFidelity(const Topology& topology,
                          const TaskSet& replicated) {
  return ComputeOutputFidelity(topology, replicated.Complement());
}

double PlanInternalCompleteness(const Topology& topology,
                                const TaskSet& replicated) {
  return ComputeInternalCompleteness(topology, replicated.Complement());
}

double SingleFailureOutputFidelity(const Topology& topology, TaskId task) {
  TaskSet failed(topology.num_tasks());
  failed.Add(task);
  return ComputeOutputFidelity(topology, failed);
}

}  // namespace ppa
