#include "workloads/incident.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "engine/serde.h"
#include "workloads/numbered_keys.h"

namespace ppa {
namespace {

Status RestoreStringToBatchMap(const std::string& snapshot, KeyBatchMap* out) {
  BinaryReader r(snapshot);
  out->clear();
  PPA_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    PPA_ASSIGN_OR_RETURN(std::string key, r.GetString());
    PPA_ASSIGN_OR_RETURN(int64_t value, r.GetI64());
    out->emplace(std::move(key), value);
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in map snapshot");
  }
  return OkStatus();
}

std::string SnapshotStringToBatchMap(const KeyBatchMap& m) {
  BinaryWriter w;
  w.PutU64(m.size());
  for (const auto& [key, value] : m) {
    w.PutString(key);
    w.PutI64(value);
  }
  return std::move(w).data();
}

void EvictOlderThan(KeyBatchMap* m, int64_t min_batch) {
  for (auto it = m->begin(); it != m->end();) {
    if (it->second < min_batch) {
      it = m->erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

IncidentSchedule::IncidentSchedule(const Options& options)
    : options_(options),
      segment_zipf_(static_cast<size_t>(options.num_segments),
                    options.zipf_s) {
  population_.resize(static_cast<size_t>(options_.num_segments));
  for (int s = 0; s < options_.num_segments; ++s) {
    population_[static_cast<size_t>(s)] = std::max(
        1, static_cast<int>(std::lround(segment_zipf_.Pmf(
               static_cast<size_t>(s)) *
               static_cast<double>(options_.num_users))));
  }
}

int64_t IncidentSchedule::IncidentStartingAt(int64_t batch) const {
  if (batch < 0 || batch % options_.incident_period_batches != 0) {
    return -1;
  }
  return batch / options_.incident_period_batches;
}

int IncidentSchedule::SegmentOfIncident(int64_t incident) const {
  // Population-weighted deterministic pick.
  Rng rng(options_.seed ^ Mix64(static_cast<uint64_t>(incident) + 1));
  return static_cast<int>(segment_zipf_.Sample(&rng));
}

bool IncidentSchedule::Jammed(int segment, int64_t batch) const {
  // An incident jams its segment from its start batch for jam_batches.
  const int64_t first =
      std::max<int64_t>(0, (batch - options_.jam_batches + 1) /
                                   options_.incident_period_batches -
                               1);
  const int64_t last = batch / options_.incident_period_batches;
  for (int64_t i = first; i <= last; ++i) {
    const int64_t start = i * options_.incident_period_batches;
    if (start <= batch && batch < start + options_.jam_batches &&
        SegmentOfIncident(i) == segment) {
      return true;
    }
  }
  return false;
}

std::vector<int64_t> IncidentSchedule::IncidentsIn(int64_t from_batch,
                                                   int64_t to_batch) const {
  std::vector<int64_t> ids;
  for (int64_t b = std::max<int64_t>(0, from_batch); b <= to_batch; ++b) {
    const int64_t id = IncidentStartingAt(b);
    if (id >= 0) {
      ids.push_back(id);
    }
  }
  return ids;
}

LocationSource::LocationSource(const IncidentSchedule* schedule,
                               int64_t tuples_per_batch_per_task,
                               uint64_t seed)
    : schedule_(schedule),
      tuples_per_batch_per_task_(tuples_per_batch_per_task),
      seed_(seed),
      user_zipf_(static_cast<size_t>(schedule->options().num_segments),
                 schedule->options().zipf_s),
      keys_(NumberedKeys("s", schedule->options().num_segments)) {}

std::vector<Tuple> LocationSource::NextBatch(int64_t batch_index,
                                             int task_index) {
  Rng rng(seed_ ^ Mix64(static_cast<uint64_t>(batch_index) * 104729u +
                        static_cast<uint64_t>(task_index)));
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(tuples_per_batch_per_task_));
  for (int64_t i = 0; i < tuples_per_batch_per_task_; ++i) {
    const int segment = static_cast<int>(user_zipf_.Sample(&rng));
    const bool jammed = schedule_->Jammed(segment, batch_index);
    Tuple& t = out.emplace_back();
    t.key = keys_[segment];
    // Speeds x100: free flow ~ [4000, 6000], jam ~ [200, 1200].
    t.value = jammed ? 200 + static_cast<int64_t>(rng.NextUint64(1000))
                     : 4000 + static_cast<int64_t>(rng.NextUint64(2000));
  }
  return out;
}

IncidentReportSource::IncidentReportSource(const IncidentSchedule* schedule,
                                           int parallelism)
    : schedule_(schedule),
      parallelism_(parallelism),
      keys_(NumberedKeys("s", schedule->options().num_segments)) {}

std::vector<Tuple> IncidentReportSource::NextBatch(int64_t batch_index,
                                                   int task_index) {
  const int64_t incident = schedule_->IncidentStartingAt(batch_index);
  if (incident < 0) {
    return {};
  }
  const int segment = schedule_->SegmentOfIncident(incident);
  const int reporters = schedule_->Population(segment);
  // Reports are spread evenly over the source's tasks.
  const int share = (reporters + parallelism_ - 1 - task_index) / parallelism_;
  Tuple report;
  report.key = keys_[segment];
  report.value = kIncidentValueBase + incident;
  return std::vector<Tuple>(static_cast<size_t>(share), report);
}

SegmentSpeedOperator::SegmentSpeedOperator(int64_t window_batches)
    : window_batches_(window_batches) {}

void SegmentSpeedOperator::ProcessBatch(BatchContext* ctx,
                                        const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  while (!slices_.empty() && slices_.front().batch <= b - window_batches_) {
    slices_.erase(slices_.begin());
  }
  Slice slice;
  slice.batch = b;
  for (const Tuple& t : inputs) {
    auto& [sum, count] = FindOrInsert(slice.sum_count, t.key);
    sum += t.value;
    ++count;
  }
  slices_.push_back(std::move(slice));
  // Windowed average per segment seen in this batch.
  for (const auto& [key, sc] : slices_.back().sum_count) {
    (void)sc;
    int64_t sum = 0, count = 0;
    for (const Slice& s : slices_) {
      auto it = s.sum_count.find(key);
      if (it != s.sum_count.end()) {
        sum += it->second.first;
        count += it->second.second;
      }
    }
    if (count > 0) {
      ctx->Emit(key, sum / count);
    }
  }
}

StatusOr<std::string> SegmentSpeedOperator::SnapshotState() {
  BinaryWriter w;
  w.PutU64(slices_.size());
  for (const Slice& s : slices_) {
    w.PutI64(s.batch);
    w.PutU64(s.sum_count.size());
    for (const auto& [key, sc] : s.sum_count) {
      w.PutString(key);
      w.PutI64(sc.first);
      w.PutI64(sc.second);
    }
  }
  return std::move(w).data();
}

Status SegmentSpeedOperator::RestoreState(const std::string& snapshot) {
  BinaryReader r(snapshot);
  slices_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    Slice s;
    PPA_ASSIGN_OR_RETURN(s.batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
    for (uint64_t j = 0; j < entries; ++j) {
      PPA_ASSIGN_OR_RETURN(std::string key, r.GetString());
      PPA_ASSIGN_OR_RETURN(int64_t sum, r.GetI64());
      PPA_ASSIGN_OR_RETURN(int64_t count, r.GetI64());
      s.sum_count.emplace(std::move(key), std::make_pair(sum, count));
    }
    slices_.push_back(std::move(s));
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in speed snapshot");
  }
  return OkStatus();
}

void SegmentSpeedOperator::Reset() { slices_.clear(); }

int64_t SegmentSpeedOperator::StateSizeTuples() const {
  int64_t total = 0;
  for (const Slice& s : slices_) {
    total += static_cast<int64_t>(s.sum_count.size());
  }
  return total;
}

DistinctIncidentOperator::DistinctIncidentOperator(int64_t window_batches)
    : window_batches_(window_batches) {}

void DistinctIncidentOperator::ProcessBatch(BatchContext* ctx,
                                            const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  EvictOlderThan(&seen_, b - window_batches_ + 1);
  for (const Tuple& t : inputs) {
    if (t.value < IncidentReportSource::kIncidentValueBase) {
      continue;  // Not an incident report.
    }
    const std::string dedup_key = t.key.str() + "|" + std::to_string(t.value);
    if (seen_.emplace(dedup_key, b).second) {
      ctx->Emit(t.key, t.value);  // First report of this incident.
    }
  }
}

StatusOr<std::string> DistinctIncidentOperator::SnapshotState() {
  return SnapshotStringToBatchMap(seen_);
}

Status DistinctIncidentOperator::RestoreState(const std::string& snapshot) {
  return RestoreStringToBatchMap(snapshot, &seen_);
}

void DistinctIncidentOperator::Reset() { seen_.clear(); }

int64_t DistinctIncidentOperator::StateSizeTuples() const {
  return static_cast<int64_t>(seen_.size());
}

IncidentJoinOperator::IncidentJoinOperator(int64_t pending_batches,
                                           int64_t jam_threshold_x100,
                                           int64_t speed_freshness_batches)
    : pending_batches_(pending_batches),
      jam_threshold_x100_(jam_threshold_x100),
      speed_freshness_batches_(speed_freshness_batches) {}

void IncidentJoinOperator::ProcessBatch(BatchContext* ctx,
                                        const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  EvictOlderThan(&pending_, b - pending_batches_ + 1);
  // Expire stale speed observations.
  for (auto it = speed_batch_.begin(); it != speed_batch_.end();) {
    if (it->second < b - speed_freshness_batches_ + 1) {
      latest_speed_.erase(it->first);
      it = speed_batch_.erase(it);
    } else {
      ++it;
    }
  }
  for (const Tuple& t : inputs) {
    if (t.value >= IncidentReportSource::kIncidentValueBase) {
      pending_.emplace(t.key.str() + "|" + std::to_string(t.value), b);
    } else {
      FindOrInsert(latest_speed_, t.key) = t.value;
      FindOrInsert(speed_batch_, t.key) = b;
    }
  }
  // Join: a pending incident fires once its segment is observably jammed.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::string& dedup_key = it->first;
    const size_t bar = dedup_key.find('|');
    const std::string segment = dedup_key.substr(0, bar);
    const int64_t incident_value =
        std::stoll(dedup_key.substr(bar + 1)) -
        IncidentReportSource::kIncidentValueBase;
    auto speed = latest_speed_.find(segment);
    if (speed != latest_speed_.end() &&
        speed->second < jam_threshold_x100_) {
      ctx->Emit(TupleKey::Numbered("inc", incident_value),
                std::stoll(segment.substr(1)));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

StatusOr<std::string> IncidentJoinOperator::SnapshotState() {
  BinaryWriter w;
  w.PutString(SnapshotStringToBatchMap(latest_speed_));
  w.PutString(SnapshotStringToBatchMap(speed_batch_));
  w.PutString(SnapshotStringToBatchMap(pending_));
  return std::move(w).data();
}

Status IncidentJoinOperator::RestoreState(const std::string& snapshot) {
  BinaryReader r(snapshot);
  PPA_ASSIGN_OR_RETURN(std::string speeds, r.GetString());
  PPA_ASSIGN_OR_RETURN(std::string speed_batches, r.GetString());
  PPA_ASSIGN_OR_RETURN(std::string pending, r.GetString());
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in join snapshot");
  }
  PPA_RETURN_IF_ERROR(RestoreStringToBatchMap(speeds, &latest_speed_));
  PPA_RETURN_IF_ERROR(RestoreStringToBatchMap(speed_batches, &speed_batch_));
  return RestoreStringToBatchMap(pending, &pending_);
}

void IncidentJoinOperator::Reset() {
  latest_speed_.clear();
  speed_batch_.clear();
  pending_.clear();
}

int64_t IncidentJoinOperator::StateSizeTuples() const {
  return static_cast<int64_t>(latest_speed_.size() + pending_.size());
}

AlarmDedupOperator::AlarmDedupOperator(int64_t window_batches)
    : window_batches_(window_batches) {}

void AlarmDedupOperator::ProcessBatch(BatchContext* ctx,
                                      const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  EvictOlderThan(&seen_, b - window_batches_ + 1);
  for (const Tuple& t : inputs) {
    if (seen_.emplace(t.key.str(), b).second) {
      ctx->Emit(t.key, t.value);
    }
  }
}

StatusOr<std::string> AlarmDedupOperator::SnapshotState() {
  return SnapshotStringToBatchMap(seen_);
}

Status AlarmDedupOperator::RestoreState(const std::string& snapshot) {
  return RestoreStringToBatchMap(snapshot, &seen_);
}

void AlarmDedupOperator::Reset() { seen_.clear(); }

int64_t AlarmDedupOperator::StateSizeTuples() const {
  return static_cast<int64_t>(seen_.size());
}

StatusOr<IncidentWorkload> MakeIncidentWorkload(
    const IncidentSchedule::Options& schedule_options,
    int64_t location_rate_per_task, const IncidentParallelism& parallelism) {
  IncidentWorkload w;
  w.schedule_options = schedule_options;
  w.location_rate_per_task = location_rate_per_task;
  TopologyBuilder b;
  w.loc_source = b.AddOperator("loc", parallelism.loc_source);
  w.inc_source = b.AddOperator("inc", parallelism.inc_source);
  w.speed = b.AddOperator("speed", parallelism.speed,
                          InputCorrelation::kIndependent, 0.2);
  w.distinct = b.AddOperator("distinct", parallelism.distinct,
                             InputCorrelation::kIndependent, 0.01);
  w.join = b.AddOperator("join", parallelism.join,
                         InputCorrelation::kCorrelated, 0.05);
  w.alarm = b.AddOperator("alarm", 1, InputCorrelation::kIndependent, 1.0);
  b.Connect(w.loc_source, w.speed, PartitionScheme::kFull);
  b.Connect(w.inc_source, w.distinct, PartitionScheme::kFull);
  b.Connect(w.speed, w.join, PartitionScheme::kFull);
  b.Connect(w.distinct, w.join, PartitionScheme::kFull);
  b.Connect(w.join, w.alarm, parallelism.join >= 2 ? PartitionScheme::kMerge
                                                   : PartitionScheme::kOneToOne);
  b.SetSourceRate(w.loc_source,
                  static_cast<double>(location_rate_per_task) *
                      parallelism.loc_source);
  // Average incident report rate: one incident per period, averaging
  // num_users / num_segments reporters (skew makes hot incidents larger).
  b.SetSourceRate(
      w.inc_source,
      static_cast<double>(schedule_options.num_users) /
          static_cast<double>(schedule_options.num_segments) /
          static_cast<double>(schedule_options.incident_period_batches));
  PPA_ASSIGN_OR_RETURN(w.topo, b.Build());
  return w;
}

Status BindIncidentWorkload(const IncidentWorkload& workload,
                            const IncidentSchedule* schedule,
                            StreamingJob* job) {
  PPA_RETURN_IF_ERROR(job->BindSource(
      workload.loc_source, [schedule, rate = workload.location_rate_per_task] {
        return std::make_unique<LocationSource>(schedule, rate, /*seed=*/99);
      }));
  const int inc_parallelism =
      job->topology().op(workload.inc_source).parallelism;
  PPA_RETURN_IF_ERROR(
      job->BindSource(workload.inc_source, [schedule, inc_parallelism] {
        return std::make_unique<IncidentReportSource>(schedule,
                                                      inc_parallelism);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.speed, [window = workload.speed_window_batches] {
        return std::make_unique<SegmentSpeedOperator>(window);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.distinct, [window = workload.pending_batches] {
        return std::make_unique<DistinctIncidentOperator>(window);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.join, [pending = workload.pending_batches,
                      threshold = workload.jam_threshold_x100] {
        return std::make_unique<IncidentJoinOperator>(pending, threshold);
      }));
  PPA_RETURN_IF_ERROR(job->BindOperator(
      workload.alarm, [window = workload.pending_batches * 4] {
        return std::make_unique<AlarmDedupOperator>(window);
      }));
  return OkStatus();
}

}  // namespace ppa
