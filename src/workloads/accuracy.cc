#include "workloads/accuracy.h"

#include <algorithm>

namespace ppa {

std::vector<SinkRecord> FilterTimely(const std::vector<SinkRecord>& records,
                                     Duration batch_interval,
                                     int64_t max_delay_batches) {
  std::vector<SinkRecord> timely;
  timely.reserve(records.size());
  for (const SinkRecord& r : records) {
    const TimePoint deadline =
        TimePoint::Zero() +
        batch_interval * (r.tuple.batch + 1 + max_delay_batches);
    if (r.emitted_at <= deadline) {
      timely.push_back(r);
    }
  }
  return timely;
}

std::set<std::string> SinkKeySet(const std::vector<SinkRecord>& records,
                                 int64_t from_batch, int64_t to_batch) {
  std::set<std::string> keys;
  for (const SinkRecord& r : records) {
    if (r.tuple.batch >= from_batch && r.tuple.batch <= to_batch) {
      keys.insert(r.tuple.key.str());
    }
  }
  return keys;
}

std::map<int64_t, std::set<std::string>> SinkKeySetsByBatch(
    const std::vector<SinkRecord>& records, int64_t from_batch,
    int64_t to_batch) {
  std::map<int64_t, std::set<std::string>> by_batch;
  for (const SinkRecord& r : records) {
    if (r.tuple.batch >= from_batch && r.tuple.batch <= to_batch) {
      by_batch[r.tuple.batch].insert(r.tuple.key.str());
    }
  }
  return by_batch;
}

double PerBatchSetAccuracy(const std::vector<SinkRecord>& test,
                           const std::vector<SinkRecord>& reference,
                           int64_t from_batch, int64_t to_batch) {
  const auto test_sets = SinkKeySetsByBatch(test, from_batch, to_batch);
  const auto ref_sets = SinkKeySetsByBatch(reference, from_batch, to_batch);
  double total = 0.0;
  int batches = 0;
  for (const auto& [batch, ref] : ref_sets) {
    if (ref.empty()) {
      continue;
    }
    auto it = test_sets.find(batch);
    size_t hits = 0;
    if (it != test_sets.end()) {
      for (const std::string& key : it->second) {
        hits += ref.count(key);
      }
    }
    total += static_cast<double>(hits) / static_cast<double>(ref.size());
    ++batches;
  }
  return batches == 0 ? 1.0 : total / batches;
}

double DistinctSetAccuracy(const std::vector<SinkRecord>& test,
                           const std::vector<SinkRecord>& reference,
                           int64_t from_batch, int64_t to_batch) {
  const std::set<std::string> t = SinkKeySet(test, from_batch, to_batch);
  const std::set<std::string> ref =
      SinkKeySet(reference, from_batch, to_batch);
  if (ref.empty()) {
    return 1.0;
  }
  size_t hits = 0;
  for (const std::string& key : t) {
    hits += ref.count(key);
  }
  return static_cast<double>(hits) / static_cast<double>(ref.size());
}

}  // namespace ppa
