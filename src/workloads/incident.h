#ifndef PPA_WORKLOADS_INCIDENT_H_
#define PPA_WORKLOADS_INCIDENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status_or.h"
#include "engine/operator.h"
#include "runtime/streaming_job.h"
#include "topology/topology.h"

namespace ppa {

/// Key -> batch state of the incident operators. The comparator is
/// transparent, so a lookup by a tuple's key view builds no string.
using KeyBatchMap = std::map<std::string, int64_t, std::less<>>;

/// Deterministic description of the Q2 synthetic navigation scenario
/// (Sec. VI-B): users distributed over road segments by a Zipf(0.5)
/// distribution, incidents arriving every `incident_period_batches` on a
/// population-weighted random segment, each jamming its segment for
/// `jam_batches` and making every user on it file a report.
/// Both sources and the ground-truth evaluation derive everything from the
/// same schedule, so runs are reproducible.
class IncidentSchedule {
 public:
  struct Options {
    int num_segments = 1000;
    int num_users = 100000;
    double zipf_s = 0.5;
    int64_t incident_period_batches = 2;
    int64_t jam_batches = 8;
    uint64_t seed = 7;
  };

  explicit IncidentSchedule(const Options& options);

  const Options& options() const { return options_; }

  /// Number of users on segment `s`.
  int Population(int segment) const {
    return population_[static_cast<size_t>(segment)];
  }

  /// Incident index starting exactly at `batch`, or -1.
  int64_t IncidentStartingAt(int64_t batch) const;

  /// The segment hit by incident `incident`.
  int SegmentOfIncident(int64_t incident) const;

  /// True if `segment` is jammed during `batch`.
  bool Jammed(int segment, int64_t batch) const;

  /// Incident ids whose jam window covers [from_batch, to_batch].
  std::vector<int64_t> IncidentsIn(int64_t from_batch, int64_t to_batch) const;

 private:
  Options options_;
  std::vector<int> population_;
  ZipfGenerator segment_zipf_;
};

/// User-location stream (20 000 records/s in the paper, split across the
/// source's tasks): (segment key, current speed). Keys are copied from the
/// shared "s" table of the segments (NumberedKeys).
class LocationSource : public SourceFunction {
 public:
  LocationSource(const IncidentSchedule* schedule,
                 int64_t tuples_per_batch_per_task, uint64_t seed);

  std::vector<Tuple> NextBatch(int64_t batch_index, int task_index) override;

 private:
  const IncidentSchedule* schedule_;
  int64_t tuples_per_batch_per_task_;
  uint64_t seed_;
  ZipfGenerator user_zipf_;
  const TupleKey* keys_;
};

/// User-reported incident stream: all users of a hit segment report in the
/// incident's start batch, split across the source's tasks. Reports share
/// the segment key of the location stream (so the join is co-partitioned)
/// and carry `kIncidentValueBase + incident_id` as value.
class IncidentReportSource : public SourceFunction {
 public:
  static constexpr int64_t kIncidentValueBase = 1'000'000;

  IncidentReportSource(const IncidentSchedule* schedule, int parallelism);

  std::vector<Tuple> NextBatch(int64_t batch_index, int task_index) override;

 private:
  const IncidentSchedule* schedule_;
  int parallelism_;
  const TupleKey* keys_;
};

/// O1: per-segment average speed over a short sliding window; emits
/// (segment, avg_speed_x100).
class SegmentSpeedOperator : public OperatorFunction {
 public:
  explicit SegmentSpeedOperator(int64_t window_batches);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  struct Slice {
    int64_t batch = 0;
    std::map<std::string, std::pair<int64_t, int64_t>, std::less<>> sum_count;
  };
  int64_t window_batches_;
  std::vector<Slice> slices_;
};

/// O2: combines duplicate user reports into distinct incident events
/// (first occurrence of each (segment, incident) in the window).
class DistinctIncidentOperator : public OperatorFunction {
 public:
  explicit DistinctIncidentOperator(int64_t window_batches);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  int64_t window_batches_;
  KeyBatchMap seen_;  // "segment|incident" -> last batch
};

/// O3 (join, correlated input): matches distinct incidents against the
/// segment speed stream; once a pending incident's segment speed falls
/// below `jam_threshold_x100`, emits ("inc<id>", segment).
class IncidentJoinOperator : public OperatorFunction {
 public:
  /// Speed observations expire after `speed_freshness_batches` so that a
  /// pending incident is only matched against a *current* jam, never a
  /// stale pre-outage observation.
  IncidentJoinOperator(int64_t pending_batches, int64_t jam_threshold_x100,
                       int64_t speed_freshness_batches = 3);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  int64_t pending_batches_;
  int64_t jam_threshold_x100_;
  int64_t speed_freshness_batches_;
  KeyBatchMap latest_speed_;  // segment -> speed x100
  KeyBatchMap speed_batch_;   // segment -> observed batch
  /// "segment|incident" -> batch the report arrived.
  KeyBatchMap pending_;
};

/// O4: deduplicating aggregator; forwards each incident alarm once.
class AlarmDedupOperator : public OperatorFunction {
 public:
  explicit AlarmDedupOperator(int64_t window_batches);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  int64_t window_batches_;
  KeyBatchMap seen_;
};

/// Q2: loc(8) --full--> speed(8) --full--> join(4) <--full-- distinct(2)
/// <--full-- inc(2); join(4) --merge--> alarm(1). The join operator is
/// correlated-input.
struct IncidentWorkload {
  Topology topo;
  OperatorId loc_source = kInvalidOperatorId;
  OperatorId inc_source = kInvalidOperatorId;
  OperatorId speed = kInvalidOperatorId;
  OperatorId distinct = kInvalidOperatorId;
  OperatorId join = kInvalidOperatorId;
  OperatorId alarm = kInvalidOperatorId;
  IncidentSchedule::Options schedule_options;
  int64_t location_rate_per_task = 2500;
  int64_t speed_window_batches = 3;
  int64_t pending_batches = 10;
  int64_t jam_threshold_x100 = 2000;
};

/// Parallelism of the Q2 stages; the reduced preset keeps the optimal DP
/// planner tractable.
struct IncidentParallelism {
  int loc_source = 8;
  int inc_source = 2;
  int speed = 8;
  int distinct = 2;
  int join = 4;

  static IncidentParallelism Reduced() {
    return IncidentParallelism{4, 2, 4, 2, 2};
  }
};

/// Builds the Q2 incident-detection topology plus its operator bindings
/// and accuracy bookkeeping (Sec. VI-B).
StatusOr<IncidentWorkload> MakeIncidentWorkload(
    const IncidentSchedule::Options& schedule_options = {},
    int64_t location_rate_per_task = 2500,
    const IncidentParallelism& parallelism = {});

/// Binds the workload; `schedule` must outlive the job.
Status BindIncidentWorkload(const IncidentWorkload& workload,
                            const IncidentSchedule* schedule,
                            StreamingJob* job);

}  // namespace ppa

#endif  // PPA_WORKLOADS_INCIDENT_H_
