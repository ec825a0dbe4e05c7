#include "workloads/topk.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/hash.h"
#include "engine/operators.h"
#include "engine/serde.h"
#include "workloads/numbered_keys.h"

namespace ppa {

TopKOperator::TopKOperator(int k, int64_t freshness_batches)
    : k_(k), freshness_batches_(freshness_batches) {}

void TopKOperator::ProcessBatch(BatchContext* ctx,
                                const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  for (const Tuple& t : inputs) {
    Entry& e = FindOrInsert(latest_, t.key);
    e.value = t.value;
    e.last_batch = b;
  }
  // Evict stale keys.
  for (auto it = latest_.begin(); it != latest_.end();) {
    if (it->second.last_batch <= b - freshness_batches_) {
      it = latest_.erase(it);
    } else {
      ++it;
    }
  }
  // Emit the current top k, ordered by value desc then key asc (total
  // order => deterministic).
  std::vector<std::pair<std::string_view, int64_t>> entries;
  entries.reserve(latest_.size());
  for (const auto& [key, e] : latest_) {
    entries.emplace_back(key, e.value);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b2) {
              if (a.second != b2.second) {
                return a.second > b2.second;
              }
              return a.first < b2.first;
            });
  const size_t limit = std::min(entries.size(), static_cast<size_t>(k_));
  for (size_t i = 0; i < limit; ++i) {
    ctx->Emit(entries[i].first, entries[i].second);
  }
}

StatusOr<std::string> TopKOperator::SnapshotState() {
  BinaryWriter w;
  w.PutU64(latest_.size());
  for (const auto& [key, e] : latest_) {
    w.PutString(key);
    w.PutI64(e.value);
    w.PutI64(e.last_batch);
  }
  return std::move(w).data();
}

Status TopKOperator::RestoreState(const std::string& snapshot) {
  BinaryReader r(snapshot);
  latest_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    PPA_ASSIGN_OR_RETURN(std::string key, r.GetString());
    Entry e;
    PPA_ASSIGN_OR_RETURN(e.value, r.GetI64());
    PPA_ASSIGN_OR_RETURN(e.last_batch, r.GetI64());
    latest_.emplace(std::move(key), e);
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in top-k snapshot");
  }
  return OkStatus();
}

void TopKOperator::Reset() { latest_.clear(); }

int64_t TopKOperator::StateSizeTuples() const {
  return static_cast<int64_t>(latest_.size());
}

WorldCupSource::WorldCupSource(const Options& options)
    : options_(options),
      zipf_(static_cast<size_t>(options.url_population), options.zipf_s),
      keys_(NumberedKeys("url", options.url_population)) {}

std::vector<Tuple> WorldCupSource::NextBatch(int64_t batch_index,
                                             int task_index) {
  Rng rng(options_.seed ^
          Mix64(static_cast<uint64_t>(batch_index) * 888888877u +
                static_cast<uint64_t>(task_index)));
  int64_t volume = options_.tuples_per_batch_per_task;
  if (options_.rate_wave_amplitude > 0.0 &&
      options_.rate_wave_period_batches > 0) {
    const double phase =
        static_cast<double>(batch_index) /
            static_cast<double>(options_.rate_wave_period_batches) +
        static_cast<double>(task_index) * 0.125;
    volume = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(volume) *
               (1.0 + options_.rate_wave_amplitude *
                          std::sin(phase * 2.0 * 3.14159265358979))));
  }
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(volume));
  for (int64_t i = 0; i < volume; ++i) {
    Tuple& t = out.emplace_back();
    t.key = keys_[zipf_.Sample(&rng)];
    t.value = 1;
  }
  return out;
}

StatusOr<TopKWorkload> MakeTopKWorkload(
    const WorldCupSource::Options& source_options,
    int64_t count_window_batches, int k,
    const TopKParallelism& parallelism) {
  TopKWorkload w;
  w.source_options = source_options;
  w.count_window_batches = count_window_batches;
  w.k = k;
  TopologyBuilder b;
  w.source = b.AddOperator("log", parallelism.source);
  w.count = b.AddOperator("count", parallelism.count,
                          InputCorrelation::kIndependent, 0.3);
  w.merge = b.AddOperator("merge", parallelism.merge,
                          InputCorrelation::kIndependent, 0.5);
  w.top = b.AddOperator("top", 1, InputCorrelation::kIndependent, 0.5);
  b.Connect(w.source, w.count, PartitionScheme::kFull);
  b.Connect(w.count, w.merge, PartitionScheme::kFull);
  b.Connect(w.merge, w.top, parallelism.merge >= 2 ? PartitionScheme::kMerge
                                                   : PartitionScheme::kOneToOne);
  b.SetSourceRate(
      w.source,
      static_cast<double>(source_options.tuples_per_batch_per_task) *
          parallelism.source);
  PPA_ASSIGN_OR_RETURN(w.topo, b.Build());
  return w;
}

Status BindTopKWorkload(const TopKWorkload& workload, StreamingJob* job) {
  PPA_RETURN_IF_ERROR(job->BindSource(workload.source, [opts =
                                                            workload
                                                                .source_options] {
    return std::make_unique<WorldCupSource>(opts);
  }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.count, [window = workload.count_window_batches] {
        return std::make_unique<WindowedKeyCountOperator>(window);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.merge, [k = workload.k, window = workload.count_window_batches] {
        // Partial stage keeps 2k candidates so the global stage has slack.
        return std::make_unique<TopKOperator>(2 * k, window);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.top, [k = workload.k, window = workload.count_window_batches] {
        return std::make_unique<TopKOperator>(k, window);
      }));
  return OkStatus();
}

}  // namespace ppa
