#include "workloads/synthetic_recovery.h"

#include <algorithm>

#include "common/hash.h"
#include "engine/operators.h"
#include "workloads/numbered_keys.h"

namespace ppa {

SyntheticSource::SyntheticSource(int64_t tuples_per_batch, int key_space,
                                 uint64_t seed)
    : tuples_per_batch_(tuples_per_batch),
      key_space_(key_space),
      seed_(seed),
      keys_(NumberedKeys("k", key_space)) {}

std::vector<Tuple> SyntheticSource::NextBatch(int64_t batch_index,
                                              int task_index) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(tuples_per_batch_));
  const uint64_t base = static_cast<uint64_t>(batch_index) * 1315423911u +
                        static_cast<uint64_t>(task_index) * 2654435761u;
  for (int64_t i = 0; i < tuples_per_batch_; ++i) {
    const uint64_t h = Mix64(seed_ ^ Mix64(base + static_cast<uint64_t>(i)));
    Tuple& t = out.emplace_back();
    t.key = keys_[h % static_cast<uint64_t>(key_space_)];
    t.value = static_cast<int64_t>(h % 1000);
  }
  return out;
}

StatusOr<SyntheticRecoveryWorkload> MakeSyntheticRecoveryWorkload(
    double rate_per_source_task, int64_t window_batches) {
  SyntheticRecoveryWorkload w;
  w.rate_per_source_task = rate_per_source_task;
  w.window_batches = window_batches;
  TopologyBuilder b;
  w.source = b.AddOperator("src", 16);
  w.o1 = b.AddOperator("O1", 8, InputCorrelation::kIndependent, 0.5);
  w.o2 = b.AddOperator("O2", 4, InputCorrelation::kIndependent, 0.5);
  w.o3 = b.AddOperator("O3", 2, InputCorrelation::kIndependent, 0.5);
  w.o4 = b.AddOperator("O4", 1, InputCorrelation::kIndependent, 0.5);
  b.Connect(w.source, w.o1, PartitionScheme::kMerge);
  b.Connect(w.o1, w.o2, PartitionScheme::kMerge);
  b.Connect(w.o2, w.o3, PartitionScheme::kMerge);
  b.Connect(w.o3, w.o4, PartitionScheme::kMerge);
  b.SetSourceRate(w.source, rate_per_source_task * 16);
  PPA_ASSIGN_OR_RETURN(w.topo, b.Build());
  return w;
}

Status BindSyntheticRecoveryWorkload(const SyntheticRecoveryWorkload& workload,
                                     StreamingJob* job) {
  const int64_t per_batch = static_cast<int64_t>(
      workload.rate_per_source_task *
      job->config().batch_interval.seconds());
  PPA_RETURN_IF_ERROR(job->BindSource(workload.source, [per_batch] {
    return std::make_unique<SyntheticSource>(per_batch, /*key_space=*/1024,
                                             /*seed=*/42);
  }));
  for (OperatorId op : {workload.o1, workload.o2, workload.o3, workload.o4}) {
    PPA_RETURN_IF_ERROR(
        job->BindOperator(op, [window = workload.window_batches] {
          return std::make_unique<SlidingWindowAggregateOperator>(
              window, /*selectivity=*/0.5);
        }));
  }
  return OkStatus();
}

Status BindGenericWorkload(const Topology& topology, const JobConfig& config,
                           StreamingJob* job) {
  for (const OperatorInfo& oi : topology.operators()) {
    if (oi.upstream.empty()) {
      double rate = 0;
      for (TaskId t : oi.tasks) {
        rate += topology.task(t).output_rate;
      }
      const int64_t per_task_batch = static_cast<int64_t>(
          rate / oi.parallelism * config.batch_interval.seconds());
      PPA_RETURN_IF_ERROR(
          job->BindSource(oi.id, [per_task_batch, id = oi.id] {
            return std::make_unique<SyntheticSource>(
                std::max<int64_t>(per_task_batch, 1), 256,
                static_cast<uint64_t>(id) + 1);
          }));
    } else {
      PPA_RETURN_IF_ERROR(job->BindOperator(
          oi.id, [window = config.window_batches, sel = oi.selectivity] {
            return std::make_unique<SlidingWindowAggregateOperator>(window,
                                                                   sel);
          }));
    }
  }
  return OkStatus();
}

StatusOr<std::vector<int>> PlaceSyntheticRecoveryWorkload(
    const SyntheticRecoveryWorkload& workload, StreamingJob* job) {
  Cluster& cluster = job->cluster();
  if (cluster.num_workers() < 19) {
    return InvalidArgument(
        "synthetic recovery placement needs >= 19 worker nodes");
  }
  const Topology& topo = job->topology();
  // Source tasks: 4 per node on nodes 0-3.
  for (int i = 0; i < 16; ++i) {
    PPA_RETURN_IF_ERROR(
        cluster.PlacePrimary(topo.op(workload.source).tasks[i], i / 4));
  }
  // Synthetic tasks: one per node on nodes 4-18.
  std::vector<int> synthetic_nodes;
  int node = 4;
  for (OperatorId op : {workload.o1, workload.o2, workload.o3, workload.o4}) {
    for (TaskId t : topo.op(op).tasks) {
      PPA_RETURN_IF_ERROR(cluster.PlacePrimary(t, node));
      synthetic_nodes.push_back(node);
      ++node;
    }
  }
  return synthetic_nodes;
}

}  // namespace ppa
