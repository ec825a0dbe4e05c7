#ifndef PPA_ENGINE_ROUTER_H_
#define PPA_ENGINE_ROUTER_H_

#include <vector>

#include "engine/tuple.h"
#include "topology/topology.h"

namespace ppa {

/// Key-based routing of a task's output stream into substreams (Sec. II-A):
/// for each (producer task, downstream operator) pair, the topology fixes
/// the set of consumer tasks, and a tuple goes to the consumer selected by
/// a deterministic hash of its key. Under one-to-one and merge partitioning
/// the consumer set is a singleton, under split it is the producer's group,
/// and under full it is the whole downstream operator.
class Router {
 public:
  explicit Router(const Topology* topology);

  /// Consumer tasks of `producer` on the edge toward `to_op`, in ascending
  /// task-id order. Empty if there is no such edge.
  const std::vector<TaskId>& Consumers(TaskId producer, OperatorId to_op) const;

  /// The consumer of `tuple` emitted by `producer` toward `to_op`;
  /// kInvalidTaskId if there is no edge.
  TaskId Route(TaskId producer, OperatorId to_op, const Tuple& tuple) const;

  /// Routes one buffered batch of `producer` toward `consumer` (a task
  /// of `to_op`): appends the tuples that hash to `consumer` to `out`
  /// (when non-null), in batch order, and returns how many routed there.
  /// A singleton consumer set (one-to-one, merge) takes the whole batch
  /// in one append. The gather side
  /// of a hop — schedulers pass the upstream BatchOutput along with its
  /// lineage so per-hop threading stays in the routing layer.
  size_t RouteBatchTo(TaskId producer, OperatorId to_op,
                      const BatchOutput& batch, TaskId consumer,
                      std::vector<Tuple>* out) const;

 private:
  const Topology* topology_;
  /// consumers_[producer * num_operators + to_op].
  std::vector<std::vector<TaskId>> consumers_;
  static const std::vector<TaskId> kEmpty;
};

}  // namespace ppa

#endif  // PPA_ENGINE_ROUTER_H_
