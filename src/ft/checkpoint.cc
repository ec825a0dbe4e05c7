#include "ft/checkpoint.h"

#include "common/status.h"

namespace ppa {

void CheckpointStore::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    bytes_histogram_ = nullptr;
    chain_deltas_histogram_ = nullptr;
    full_counter_ = nullptr;
    delta_counter_ = nullptr;
    skipped_counter_ = nullptr;
    store_bytes_gauge_ = nullptr;
    return;
  }
  bytes_histogram_ = registry->histogram("checkpoint.bytes");
  chain_deltas_histogram_ = registry->histogram("checkpoint.chain_deltas");
  full_counter_ = registry->counter("checkpoint.full");
  delta_counter_ = registry->counter("checkpoint.delta");
  skipped_counter_ = registry->counter("checkpoint.skipped");
  store_bytes_gauge_ = registry->gauge("checkpoint.store_blob_bytes");
}

void CheckpointStore::Put(TaskCheckpoint checkpoint) {
  checkpoint.is_delta = false;
  obs::Observe(bytes_histogram_, static_cast<double>(checkpoint.blob.size()));
  obs::Add(full_counter_);
  auto& chain = chains_[checkpoint.task];
  if (!chain.empty()) {
    // How long the replaced chain got before this rebase.
    obs::Observe(chain_deltas_histogram_,
                 static_cast<double>(chain.size() - 1));
    for (const TaskCheckpoint& cp : chain) {
      total_bytes_ -= static_cast<int64_t>(cp.blob.size());
    }
  }
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  obs::Set(store_bytes_gauge_, static_cast<double>(total_bytes_));
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
  obs::Observe(bytes_histogram_, static_cast<double>(checkpoint.blob.size()));
  obs::Add(delta_counter_);
  total_bytes_ += static_cast<int64_t>(checkpoint.blob.size());
  obs::Set(store_bytes_gauge_, static_cast<double>(total_bytes_));
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
  obs::Add(skipped_counter_);
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
