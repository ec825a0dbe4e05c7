#ifndef PPA_TOPOLOGY_TOPOLOGY_H_
#define PPA_TOPOLOGY_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "topology/types.h"

namespace ppa {

/// Static description of one operator of a query topology.
struct OperatorInfo {
  OperatorId id = kInvalidOperatorId;
  std::string name;
  /// Degree of parallelization (number of tasks).
  int parallelism = 1;
  /// Join vs. union semantics of multi-stream input (Sec. III-A1).
  InputCorrelation correlation = InputCorrelation::kIndependent;
  /// Fraction of (effective) input rate that appears on the output stream.
  double selectivity = 1.0;
  /// Ids of this operator's tasks, in partition order.
  std::vector<TaskId> tasks;
  /// Upstream neighbouring operators (one entry per input stream).
  std::vector<OperatorId> upstream;
  /// Downstream neighbouring operators.
  std::vector<OperatorId> downstream;
};

/// An operator-level edge: `from`'s output stream is partitioned to `to`.
struct StreamEdge {
  OperatorId from = kInvalidOperatorId;
  OperatorId to = kInvalidOperatorId;
  PartitionScheme scheme = PartitionScheme::kFull;
};

/// A task-level edge (a substream): part of `from`'s output stream that is
/// routed to task `to`. `rate` is the substream rate (tuples/s), derived by
/// Topology from source rates, task weights, and operator selectivities.
struct Substream {
  TaskId from = kInvalidTaskId;
  TaskId to = kInvalidTaskId;
  OperatorId from_op = kInvalidOperatorId;
  OperatorId to_op = kInvalidOperatorId;
  double rate = 0.0;
};

/// Static description of one task.
struct TaskInfo {
  TaskId id = kInvalidTaskId;
  OperatorId op = kInvalidOperatorId;
  /// Index of this task within its operator, in [0, parallelism).
  int index_in_op = 0;
  /// Relative share of its operator's input keys routed to this task;
  /// drives workload skew (Fig. 14(a)). Default 1.0 (uniform).
  double weight = 1.0;
  /// Output stream rate (tuples/s), derived. For source tasks this is the
  /// configured generation rate share.
  double output_rate = 0.0;
  /// Indexes into Topology::substreams() of the task's incoming substreams.
  std::vector<int> in_substreams;
  /// Indexes into Topology::substreams() of the task's outgoing substreams.
  std::vector<int> out_substreams;
};

/// Immutable(-ish) query topology: a DAG of operators expanded into a DAG
/// of tasks connected by substreams, with a derived rate on every substream
/// and every task output stream (Sec. II). Build instances with
/// TopologyBuilder. The only post-build mutation is updating source rates /
/// task weights and recomputing the derived rates.
class Topology {
 public:
  Topology() = default;

  int num_operators() const { return static_cast<int>(operators_.size()); }
  int num_tasks() const { return static_cast<int>(tasks_.size()); }

  const std::vector<OperatorInfo>& operators() const { return operators_; }
  const std::vector<TaskInfo>& tasks() const { return tasks_; }
  const std::vector<StreamEdge>& edges() const { return edges_; }
  const std::vector<Substream>& substreams() const { return substreams_; }

  const OperatorInfo& op(OperatorId id) const { return operators_[id]; }
  const TaskInfo& task(TaskId id) const { return tasks_[id]; }

  /// Operators with no upstream neighbours (stream sources).
  const std::vector<OperatorId>& source_operators() const { return sources_; }
  /// Operators with no downstream neighbours (output operators).
  const std::vector<OperatorId>& sink_operators() const { return sinks_; }

  /// True iff the task belongs to a source operator.
  [[nodiscard]] bool IsSourceTask(TaskId id) const {
    return op(task(id).op).upstream.empty();
  }
  /// True iff the task belongs to a sink operator.
  [[nodiscard]] bool IsSinkTask(TaskId id) const {
    return op(task(id).op).downstream.empty();
  }

  /// The partition scheme of the operator-level edge from -> to; NotFound
  /// if the operators are not neighbours.
  StatusOr<PartitionScheme> EdgeScheme(OperatorId from, OperatorId to) const;

  /// Operators in a topological order (sources first).
  const std::vector<OperatorId>& topo_order() const { return topo_order_; }

  /// Human-readable task label, e.g. "agg[3]".
  [[nodiscard]] std::string TaskLabel(TaskId id) const;

  /// Re-derives all substream and task output rates from source rates,
  /// task weights, and operator selectivities, in topological order:
  ///   substream(u -> t).rate = out_rate(u) * weight(t) / sum of weights of
  ///                            u's downstream tasks on that edge;
  ///   out_rate(t) = selectivity(op(t)) * total input rate of t.
  void RecomputeRates();

 private:
  friend class TopologyBuilder;

  std::vector<OperatorInfo> operators_;
  std::vector<TaskInfo> tasks_;
  std::vector<StreamEdge> edges_;
  std::vector<Substream> substreams_;
  std::vector<OperatorId> sources_;
  std::vector<OperatorId> sinks_;
  std::vector<OperatorId> topo_order_;
  /// Configured per-source-operator aggregate rates.
  std::vector<double> source_rates_;
};

/// Incremental construction of a Topology with validation at Build() time.
class TopologyBuilder {
 public:
  TopologyBuilder() = default;

  /// Adds an operator and returns its id. `parallelism` must be >= 1.
  OperatorId AddOperator(std::string name, int parallelism,
                         InputCorrelation correlation =
                             InputCorrelation::kIndependent,
                         double selectivity = 1.0);

  /// Declares that `to` subscribes to `from`'s output stream, partitioned by
  /// `scheme`. Self-subscription is rejected at Build().
  TopologyBuilder& Connect(OperatorId from, OperatorId to,
                           PartitionScheme scheme);

  /// Sets the aggregate output rate of a source operator (default 1000/s).
  TopologyBuilder& SetSourceRate(OperatorId op, double total_rate);

  /// Sets the key-share weight of task `index` of operator `op`.
  TopologyBuilder& SetTaskWeight(OperatorId op, int index, double weight);

  /// Validates the graph (acyclic, scheme/parallelism compatibility, no
  /// self loops, every non-source operator reachable from a source) and
  /// produces the expanded task-level topology with derived rates.
  StatusOr<Topology> Build() const;

 private:
  struct PendingOperator {
    std::string name;
    int parallelism;
    InputCorrelation correlation;
    double selectivity;
  };
  struct PendingWeight {
    OperatorId op;
    int index;
    double weight;
  };

  std::vector<PendingOperator> operators_;
  std::vector<StreamEdge> edges_;
  std::vector<std::pair<OperatorId, double>> source_rates_;
  std::vector<PendingWeight> weights_;
};

}  // namespace ppa

#endif  // PPA_TOPOLOGY_TOPOLOGY_H_
