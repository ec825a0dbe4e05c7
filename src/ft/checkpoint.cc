#include "ft/checkpoint.h"

#include <algorithm>

#include "common/logging.h"
#include "common/status.h"

namespace ppa {

const CheckpointStore::TaskEntry& CheckpointStore::At(TaskId task) const {
  static const TaskEntry kNeverWritten;
  return task >= 0 && static_cast<size_t>(task) < tasks_.size()
             ? tasks_[static_cast<size_t>(task)]
             : kNeverWritten;
}

CheckpointStore::TaskEntry& CheckpointStore::Grow(TaskId task) {
  PPA_CHECK(task >= 0) << "checkpoint for invalid task " << task;
  if (static_cast<size_t>(task) >= tasks_.size()) {
    tasks_.resize(static_cast<size_t>(task) + 1);
  }
  return tasks_[static_cast<size_t>(task)];
}

void CheckpointStore::Put(TaskCheckpoint checkpoint) {
  checkpoint.is_delta = false;
  TaskEntry& entry = Grow(checkpoint.task);
  for (const TaskCheckpoint& cp : entry.chain) {
    total_bytes_ -= static_cast<int64_t>(cp.blob.size());
  }
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  entry.chain.clear();
  entry.chain.push_back(std::move(checkpoint));
  entry.rebase = false;
}

Status CheckpointStore::PutDelta(TaskCheckpoint checkpoint) {
  if (At(checkpoint.task).chain.empty()) {
    return FailedPrecondition("delta checkpoint without a base");
  }
  TaskEntry& entry = Grow(checkpoint.task);
  if (entry.rebase) {
    return FailedPrecondition("delta checkpoint while a rebase is pending");
  }
  if (checkpoint.next_batch < entry.chain.back().next_batch) {
    return InvalidArgument("delta checkpoint regresses coverage");
  }
  checkpoint.is_delta = true;
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  entry.chain.push_back(std::move(checkpoint));
  return OkStatus();
}

void CheckpointStore::RequireFull(TaskId task) { Grow(task).rebase = true; }

bool CheckpointStore::AcceptsDelta(TaskId task, int max_chain) const {
  const TaskEntry& entry = At(task);
  return !entry.chain.empty() && !entry.rebase &&
         ChainDeltas(task) < max_chain;
}

const std::vector<TaskCheckpoint>* CheckpointStore::Chain(TaskId task) const {
  const std::vector<TaskCheckpoint>& chain = At(task).chain;
  return chain.empty() ? nullptr : &chain;
}

int64_t CheckpointStore::ChainDeltas(TaskId task) const {
  return std::max<int64_t>(0, std::ssize(At(task).chain) - 1);
}

int64_t CheckpointStore::ChainStateTuples(TaskId task) const {
  int64_t total = 0;
  for (const TaskCheckpoint& cp : At(task).chain) {
    total += cp.state_tuples;
  }
  return total;
}

int64_t CheckpointStore::CoveredBatch(TaskId task) const {
  const std::vector<TaskCheckpoint>& chain = At(task).chain;
  return chain.empty() ? 0 : chain.back().next_batch;
}

void CheckpointStore::NoteSkipped(TaskId task, int64_t next_batch) {
  int64_t& frontier = Grow(task).skipped_frontier;
  frontier = std::max(frontier, next_batch);
}

int64_t CheckpointStore::TrimBatch(TaskId task) const {
  return std::max(CoveredBatch(task), At(task).skipped_frontier);
}

}  // namespace ppa
