#include "ft/checkpoint.h"

#include "common/status.h"

namespace ppa {

void CheckpointStore::Put(TaskCheckpoint checkpoint) {
  checkpoint.is_delta = false;
  auto& chain = chains_[checkpoint.task];
  for (const TaskCheckpoint& cp : chain) {
    total_bytes_ -= static_cast<int64_t>(cp.blob.size());
  }
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  chain.clear();
  chain.push_back(std::move(checkpoint));
}

Status CheckpointStore::PutDelta(TaskCheckpoint checkpoint) {
  auto it = chains_.find(checkpoint.task);
  if (it == chains_.end() || it->second.empty()) {
    return FailedPrecondition("delta checkpoint without a base");
  }
  if (checkpoint.next_batch < it->second.back().next_batch) {
    return InvalidArgument("delta checkpoint regresses coverage");
  }
  checkpoint.is_delta = true;
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  it->second.push_back(std::move(checkpoint));
  return OkStatus();
}

const TaskCheckpoint* CheckpointStore::Latest(TaskId task) const {
  auto it = chains_.find(task);
  if (it == chains_.end() || it->second.empty()) {
    return nullptr;
  }
  return &it->second.back();
}

const std::vector<TaskCheckpoint>* CheckpointStore::Chain(TaskId task) const {
  auto it = chains_.find(task);
  if (it == chains_.end() || it->second.empty()) {
    return nullptr;
  }
  return &it->second;
}

int64_t CheckpointStore::ChainDeltas(TaskId task) const {
  const std::vector<TaskCheckpoint>* chain = Chain(task);
  return chain == nullptr ? 0 : static_cast<int64_t>(chain->size()) - 1;
}

int64_t CheckpointStore::ChainStateTuples(TaskId task) const {
  const std::vector<TaskCheckpoint>* chain = Chain(task);
  if (chain == nullptr) {
    return 0;
  }
  int64_t total = 0;
  for (const TaskCheckpoint& cp : *chain) {
    total += cp.state_tuples;
  }
  return total;
}

int64_t CheckpointStore::CoveredBatch(TaskId task) const {
  const TaskCheckpoint* cp = Latest(task);
  return cp == nullptr ? 0 : cp->next_batch;
}

void CheckpointStore::NoteSkipped(TaskId task, int64_t next_batch) {
  int64_t& frontier = skipped_frontier_[task];
  if (next_batch > frontier) {
    frontier = next_batch;
  }
}

int64_t CheckpointStore::SkippedFrontier(TaskId task) const {
  auto it = skipped_frontier_.find(task);
  return it == skipped_frontier_.end() ? 0 : it->second;
}

int64_t CheckpointStore::TrimBatch(TaskId task) const {
  const int64_t covered = CoveredBatch(task);
  const int64_t skipped = SkippedFrontier(task);
  return skipped > covered ? skipped : covered;
}

}  // namespace ppa
