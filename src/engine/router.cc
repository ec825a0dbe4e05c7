#include "engine/router.h"

#include <algorithm>

#include "common/hash.h"

namespace ppa {

const std::vector<TaskId> Router::kEmpty;

Router::Router(const Topology* topology) : topology_(topology) {
  consumers_.resize(static_cast<size_t>(topology->num_tasks()) *
                    static_cast<size_t>(topology->num_operators()));
  for (const Substream& s : topology->substreams()) {
    consumers_[static_cast<size_t>(s.from) *
                   static_cast<size_t>(topology->num_operators()) +
               static_cast<size_t>(s.to_op)]
        .push_back(s.to);
  }
  for (auto& list : consumers_) {
    std::sort(list.begin(), list.end());
  }
}

const std::vector<TaskId>& Router::Consumers(TaskId producer,
                                             OperatorId to_op) const {
  if (producer < 0 || producer >= topology_->num_tasks() || to_op < 0 ||
      to_op >= topology_->num_operators()) {
    return kEmpty;
  }
  return consumers_[static_cast<size_t>(producer) *
                        static_cast<size_t>(topology_->num_operators()) +
                    static_cast<size_t>(to_op)];
}

TaskId Router::Route(TaskId producer, OperatorId to_op,
                     const Tuple& tuple) const {
  const std::vector<TaskId>& consumers = Consumers(producer, to_op);
  if (consumers.empty()) {
    return kInvalidTaskId;
  }
  if (consumers.size() == 1) {
    return consumers[0];
  }
  // Salt the hash with the consuming operator so different groupings
  // partition the key space independently (as separate hash functions in a
  // real engine would); all edges into the same operator share the salt,
  // which keeps multi-stream joins co-partitioned.
  const uint64_t h =
      Mix64(Fnv1a64(tuple.key) ^ (static_cast<uint64_t>(to_op) *
                                  0x9e3779b97f4a7c15ULL));
  return consumers[h % consumers.size()];
}

size_t Router::RouteBatchTo(TaskId producer, OperatorId to_op,
                            const BatchOutput& batch, TaskId consumer,
                            std::vector<Tuple>* out) const {
  const std::vector<TaskId>& consumers = Consumers(producer, to_op);
  if (consumers.size() == 1) {
    // One-to-one and merge edges: the whole batch goes to one consumer.
    if (consumers[0] != consumer) {
      return 0;
    }
    if (out != nullptr) {
      out->insert(out->end(), batch.tuples.begin(), batch.tuples.end());
    }
    return batch.tuples.size();
  }
  size_t routed = 0;
  for (const Tuple& t : batch.tuples) {
    if (Route(producer, to_op, t) != consumer) {
      continue;
    }
    ++routed;
    if (out != nullptr) {
      out->push_back(t);
    }
  }
  return routed;
}

}  // namespace ppa
