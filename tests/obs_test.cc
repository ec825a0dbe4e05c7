// Tests for the observability subsystem (src/obs/): metric semantics,
// histogram percentile math, trace ordering, timeline derivation, JSON
// export shape, and the two properties the runtime integration must hold:
// recording is deterministic, and disabling it does not change the
// simulation.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;

TEST(MetricsTest, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(MetricsTest, GaugeTracksEnvelope) {
  obs::Gauge g;
  EXPECT_EQ(g.samples(), 0);
  g.Set(5.0);
  g.Set(-3.0);
  g.Set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.min(), -3.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_EQ(g.samples(), 3);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::Histogram h({10.0, 100.0});
  h.Record(5.0);
  h.Record(10.0);   // inclusive upper bound -> first bucket
  h.Record(50.0);
  h.Record(1000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1065.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 1065.0 / 4);
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2);
  EXPECT_EQ(h.bucket_counts()[1], 1);
  EXPECT_EQ(h.bucket_counts()[2], 1);
}

TEST(MetricsTest, PercentilesOnKnownDistribution) {
  // Decile buckets, one sample at each integer 1..100: percentile p
  // interpolates to exactly p (clamped to the observed extremes).
  std::vector<double> bounds;
  for (double b = 10.0; b <= 100.0; b += 10.0) {
    bounds.push_back(b);
  }
  obs::Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) {
    h.Record(static_cast<double>(v));
  }
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);    // observed min
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);  // observed max
}

TEST(MetricsTest, PercentileOfEmptyAndSingleton) {
  obs::Histogram h({1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  h.Record(7.0);
  // One sample: every percentile collapses onto it (lo==hi clamp).
  EXPECT_DOUBLE_EQ(h.Percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 7.0);
}

TEST(MetricsTest, DefaultBoundsAreExactRoundNumbers) {
  // 1-2-5 decades from 1e-3 to 5e9. The edges are built from an exact
  // integer power of ten, so each one must equal the decimal literal
  // bit-for-bit — no accumulated floating-point drift across decades.
  const std::vector<double> bounds = obs::Histogram::DefaultBounds();
  ASSERT_EQ(bounds.size(), 39u);
  EXPECT_EQ(bounds[0], 0.001);
  EXPECT_EQ(bounds[1], 0.002);
  EXPECT_EQ(bounds[2], 0.005);
  EXPECT_EQ(bounds[3], 0.01);
  EXPECT_EQ(bounds[8], 0.5);
  EXPECT_EQ(bounds[9], 1.0);
  EXPECT_EQ(bounds[10], 2.0);
  EXPECT_EQ(bounds[11], 5.0);
  EXPECT_EQ(bounds[17], 500.0);
  EXPECT_EQ(bounds[36], 1e9);
  EXPECT_EQ(bounds[37], 2e9);
  EXPECT_EQ(bounds[38], 5e9);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsTest, RegistryHandlesAreStableAndKindScoped) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.counter("x.events");
  obs::Counter* c2 = registry.counter("x.events");
  EXPECT_EQ(c1, c2);
  // The same name in a different kind is a distinct metric.
  obs::Gauge* g = registry.gauge("x.events");
  obs::Histogram* h = registry.histogram("x.events");
  c1->Increment(3);
  g->Set(1.5);
  h->Record(2.0);
  EXPECT_EQ(registry.counter("x.events")->value(), 3);
  EXPECT_EQ(registry.gauge("x.events")->samples(), 1);
  EXPECT_EQ(registry.histogram("x.events")->count(), 1);
}

TEST(MetricsTest, NullSafeHelpersIgnoreNullptr) {
  obs::Add(static_cast<obs::Counter*>(nullptr));
  obs::Set(static_cast<obs::Gauge*>(nullptr), 1.0);
  obs::Observe(static_cast<obs::Histogram*>(nullptr), 1.0);
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("c");
  obs::Add(c, 2);
  EXPECT_EQ(c->value(), 2);
}

TEST(MetricsTest, SingleBucketHistogramSaturates) {
  // One finite bucket plus the overflow: everything at or below the
  // bound lands in bucket 0, and percentiles clamp to the observed
  // extremes instead of interpolating past them.
  obs::Histogram h({10.0});
  ASSERT_EQ(h.bucket_counts().size(), 2u);
  for (int i = 0; i < 100; ++i) {
    h.Record(10.0);
  }
  EXPECT_EQ(h.bucket_counts()[0], 100);
  EXPECT_EQ(h.bucket_counts()[1], 0);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 10.0);
}

TEST(MetricsTest, ValueAboveLastBoundGoesToOverflow) {
  obs::Histogram h({1.0, 10.0});
  h.Record(10.5);
  h.Record(1e12);
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 0);
  EXPECT_EQ(h.bucket_counts()[1], 0);
  EXPECT_EQ(h.bucket_counts()[2], 2);
  // The overflow bucket has no upper bound; percentiles stay within the
  // observed range rather than inventing one.
  EXPECT_DOUBLE_EQ(h.min(), 10.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_LE(h.Percentile(99), 1e12);
  EXPECT_GE(h.Percentile(1), 10.5);
}

TEST(MetricsTest, RecordingOrderDoesNotChangeTheHistogram) {
  // Accumulation is a commutative fold: the same multiset of samples
  // must produce identical stats, buckets, and percentiles no matter
  // the arrival order (parallel-runner cells feed histograms in
  // submission order, so this is what keeps reports deterministic).
  obs::Histogram ascending({10.0, 50.0, 100.0});
  obs::Histogram descending({10.0, 50.0, 100.0});
  for (int v = 1; v <= 100; ++v) {
    ascending.Record(static_cast<double>(v));
    descending.Record(static_cast<double>(101 - v));
  }
  EXPECT_EQ(ascending.count(), descending.count());
  EXPECT_DOUBLE_EQ(ascending.sum(), descending.sum());
  EXPECT_DOUBLE_EQ(ascending.min(), descending.min());
  EXPECT_DOUBLE_EQ(ascending.max(), descending.max());
  ASSERT_EQ(ascending.bucket_counts(), descending.bucket_counts());
  for (double p : {1.0, 50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(ascending.Percentile(p), descending.Percentile(p));
  }
  EXPECT_EQ(obs::HistogramToJson(ascending).Serialize(),
            obs::HistogramToJson(descending).Serialize());
}

// The flight recorder is a capacity-bounded TraceLog mirrored off the
// job's main trace (StreamingJob::flight_recorder()).
TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents) {
  obs::TraceLog ring;
  ring.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    ring.Record(TimePoint::Zero() + Duration::Seconds(i),
                TraceEventKind::kTaskFailed, i, 0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The retained tail is the newest four, oldest first.
  const auto& events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().task, 6);
  EXPECT_EQ(events.back().task, 9);
}

TEST(FlightRecorderTest, MirrorRecordsEvenWithTheTraceDisabled) {
  // The always-on property: the main trace is off (observability
  // disabled), yet its mirror — the flight-recorder ring — still sees
  // every Record call.
  obs::TraceLog ring;
  ring.set_capacity(8);
  obs::TraceLog trace;
  trace.set_enabled(false);
  trace.set_mirror(&ring);
  trace.Record(TimePoint::Zero(), TraceEventKind::kNodeFailure, -1, 2);
  trace.Record(TimePoint::Zero() + Duration::Seconds(1),
               TraceEventKind::kTaskFailed, 5, 2);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.events()[1].task, 5);
}

TEST(FlightRecorderTest, DumpIsByteIdenticalForIdenticalRuns) {
  auto feed = [](obs::TraceLog* ring) {
    ring->set_capacity(4);
    for (int i = 0; i < 7; ++i) {
      ring->Record(TimePoint::Zero() + Duration::Seconds(i),
                   TraceEventKind::kCheckpointBegin, i % 3, i, i * 2, i * 3);
    }
  };
  obs::TraceLog a;
  obs::TraceLog b;
  feed(&a);
  feed(&b);
  const JsonValue dump_a = obs::FlightRecordToJson(a);
  const JsonValue dump_b = obs::FlightRecordToJson(b);
  EXPECT_EQ(dump_a.Serialize(), dump_b.Serialize());
  // Shape: capacity/dropped/recorded plus the retained tail.
  EXPECT_EQ(dump_a.Find("capacity")->AsInt(), 4);
  EXPECT_EQ(dump_a.Find("dropped")->AsInt(), 3);
  EXPECT_EQ(dump_a.Find("recorded")->AsInt(), 7);
  EXPECT_EQ(dump_a.Find("events")->size(), 4u);
}

TEST(TraceTest, SameInstantEventsKeepInsertionOrder) {
  obs::TraceLog trace;
  const TimePoint t = TimePoint::Zero() + Duration::Seconds(1);
  trace.Record(t, TraceEventKind::kNodeFailure, -1, 3, 2);
  trace.Record(t, TraceEventKind::kTaskFailed, 5, 3);
  trace.Record(t, TraceEventKind::kTaskFailed, 6, 3);
  ASSERT_EQ(trace.size(), 3u);
  const auto& events = trace.events();
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].kind, TraceEventKind::kNodeFailure);
  EXPECT_EQ(events[1].task, 5);
  EXPECT_EQ(events[2].task, 6);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kTaskFailed), 2);
  const TraceEvent* first = trace.FirstOf(TraceEventKind::kTaskFailed);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->task, 5);
  EXPECT_EQ(trace.FirstOf(TraceEventKind::kCheckpointBegin), nullptr);
}

TEST(TraceTest, DisabledLogDropsEvents) {
  obs::TraceLog trace;
  trace.set_enabled(false);
  trace.Record(TimePoint::Zero(), TraceEventKind::kNodeFailure);
  EXPECT_EQ(trace.size(), 0u);
  trace.set_enabled(true);
  trace.Record(TimePoint::Zero(), TraceEventKind::kNodeFailure);
  EXPECT_EQ(trace.size(), 1u);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceTest, CapacityEvictsOldestFirst) {
  obs::TraceLog trace;
  EXPECT_EQ(trace.capacity(), 0u);  // Unbounded by default.
  trace.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    trace.Record(TimePoint::Zero() + Duration::Seconds(i),
                 TraceEventKind::kTaskFailed, i, 0);
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  // Oldest two evicted; sequence numbers keep their global order.
  EXPECT_EQ(trace.events().front().task, 2);
  EXPECT_EQ(trace.events().front().seq, 2u);
  EXPECT_EQ(trace.events().back().task, 4);
  // Shrinking below the current size evicts immediately.
  trace.set_capacity(1);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.dropped(), 4u);
  EXPECT_EQ(trace.events().front().task, 4);
  // Back to unbounded: nothing is evicted any more.
  trace.set_capacity(0);
  trace.Record(TimePoint::Zero() + Duration::Seconds(9),
               TraceEventKind::kTaskFailed, 9, 0);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 4u);
  trace.Clear();
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TimelineTest, BuildsEpisodesPerFailure) {
  obs::TraceLog trace;
  const TimePoint t0 = TimePoint::Zero();
  auto at = [&](double s) { return t0 + Duration::Seconds(s); };
  // Task 4: full episode. Task 7: fails, never caught up (open episode).
  trace.Record(at(10), TraceEventKind::kTaskFailed, 4, 1);
  trace.Record(at(10), TraceEventKind::kTaskFailed, 7, 1);
  trace.Record(at(12), TraceEventKind::kRecoveryStart, 4, -1,
               /*kind=*/1, 2500000);
  trace.Record(at(14.5), TraceEventKind::kRecoveryDone, 4, -1, 1);
  trace.Record(at(16), TraceEventKind::kTaskCaughtUp, 4, -1, 16);
  // Second failure of task 4 -> second episode.
  trace.Record(at(20), TraceEventKind::kTaskFailed, 4, 2);

  auto timelines = obs::BuildRecoveryTimelines(trace);
  ASSERT_EQ(timelines.size(), 3u);
  const obs::RecoveryTimeline& full = timelines[0];
  EXPECT_EQ(full.task, 4);
  EXPECT_TRUE(full.detected);
  EXPECT_TRUE(full.restored);
  EXPECT_TRUE(full.caught_up);
  EXPECT_EQ(full.recovery_kind, 1);
  EXPECT_DOUBLE_EQ(full.RestoreLatency().seconds(), 4.5);
  EXPECT_DOUBLE_EQ(full.RecoveryLatency().seconds(), 2.5);
  const obs::RecoveryTimeline& open = timelines[1];
  EXPECT_EQ(open.task, 7);
  EXPECT_FALSE(open.detected);
  EXPECT_DOUBLE_EQ(open.RestoreLatency().seconds(), 0.0);
  EXPECT_EQ(timelines[2].task, 4);
  EXPECT_FALSE(timelines[2].restored);
}

TEST(TimelineTest, ExtractsTentativeWindows) {
  obs::TraceLog trace;
  const TimePoint t0 = TimePoint::Zero();
  auto at = [&](double s) { return t0 + Duration::Seconds(s); };
  trace.Record(at(5), TraceEventKind::kTentativeWindowBegin, -1, -1, 5);
  trace.Record(at(9), TraceEventKind::kTentativeWindowEnd, -1, -1, 9);
  trace.Record(at(20), TraceEventKind::kTentativeWindowBegin, -1, -1, 20);
  auto windows = obs::ExtractTentativeWindows(trace);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_TRUE(windows[0].closed);
  EXPECT_DOUBLE_EQ(windows[0].begin.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(windows[0].end.seconds(), 9.0);
  EXPECT_EQ(windows[0].first_batch, 5);
  EXPECT_EQ(windows[0].last_batch, 9);
  EXPECT_FALSE(windows[1].closed);
  EXPECT_EQ(windows[1].last_batch, -1);
}

TEST(ExportTest, JsonShape) {
  obs::MetricsRegistry registry;
  registry.counter("sink.records")->Increment(12);
  registry.gauge("buffer.tuples")->Set(3.0);
  registry.histogram("checkpoint.duration_us")->Record(100.0);
  obs::TraceLog trace;
  trace.Record(TimePoint::Zero() + Duration::Seconds(1),
               TraceEventKind::kTaskFailed, 2, 0);
  const std::string json =
      obs::RunProfileToJson(registry, trace, [](int64_t task) {
        return "task-" + std::to_string(task);
      }).Serialize();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"sink.records\":12"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint.duration_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_timelines\""), std::string::npos);
  EXPECT_NE(json.find("\"tentative_windows\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("task-2"), std::string::npos);
}

/// src(2) -> mid(2) -> sink(1) job used by the integration tests below.
struct JobHarness {
  explicit JobHarness(bool observability) {
    TopologyBuilder b;
    OperatorId src = b.AddOperator("src", 2);
    OperatorId mid =
        b.AddOperator("mid", 2, InputCorrelation::kIndependent, 0.5);
    OperatorId sink =
        b.AddOperator("sink", 1, InputCorrelation::kIndependent, 0.5);
    b.Connect(src, mid, PartitionScheme::kOneToOne);
    b.Connect(mid, sink, PartitionScheme::kMerge);
    b.SetSourceRate(src, 40.0);
    auto topo = b.Build();
    PPA_CHECK(topo.ok());

    JobConfig cfg;
    cfg.ft_mode = FtMode::kPpa;
    cfg.batch_interval = Duration::Seconds(1);
    cfg.detection_interval = Duration::Seconds(2);
    cfg.checkpoint_interval = Duration::Seconds(5);
    cfg.replica_sync_interval = Duration::Seconds(2);
    cfg.num_worker_nodes = 5;
    cfg.num_standby_nodes = 5;
    cfg.window_batches = 5;
    cfg.stagger_checkpoints = false;
    cfg.observability = observability;

    job = std::make_unique<StreamingJob>(*std::move(topo), cfg, JobRuntimeDeps(&loop));
    PPA_CHECK_OK(job->BindSource(0, [] {
      return std::make_unique<SyntheticSource>(20, 64, 7);
    }));
    for (OperatorId op : {1, 2}) {
      PPA_CHECK_OK(job->BindOperator(op, [] {
        return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
      }));
    }
    TaskSet active(job->topology().num_tasks());
    active.Add(3);  // mid[1] gets a replica; mid[0] (task 2) stays
                    // passive-only, so its failure degrades the sink.
    PPA_CHECK_OK(job->SetActiveReplicaSet(active));
    PPA_CHECK_OK(job->Start());
  }

  /// Runs to 60 s with a node failure at 10.5 s that kills the passive
  /// mid[0], forcing tentative outputs while it recovers.
  void RunFailureScenario() {
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
    PPA_CHECK_OK(job->InjectNodeFailure(2));
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  }

  backend::SimBackend loop;
  std::unique_ptr<StreamingJob> job;
};

TEST(ObsIntegrationTest, TraceIsDeterministicAcrossIdenticalRuns) {
  JobHarness a(/*observability=*/true);
  JobHarness b(/*observability=*/true);
  a.RunFailureScenario();
  b.RunFailureScenario();
  ASSERT_FALSE(a.job->trace().events().empty());
  ASSERT_EQ(a.job->trace().size(), b.job->trace().size());
  EXPECT_EQ(a.job->trace().events(), b.job->trace().events());
  // The metrics snapshots serialize identically too, and so does the
  // fidelity timeseries.
  EXPECT_EQ(obs::MetricsToJson(a.job->metrics()).Serialize(),
            obs::MetricsToJson(b.job->metrics()).Serialize());
  EXPECT_EQ(
      obs::FidelityTimeseriesToJson(a.job->fidelity_timeseries(), nullptr)
          .Serialize(),
      obs::FidelityTimeseriesToJson(b.job->fidelity_timeseries(), nullptr)
          .Serialize());
}

TEST(ObsIntegrationTest, ObservabilityDoesNotPerturbSimulation) {
  JobHarness on(/*observability=*/true);
  JobHarness off(/*observability=*/false);
  on.RunFailureScenario();
  off.RunFailureScenario();
  // Identical simulation output with recording on and off.
  ASSERT_EQ(on.job->sink_records().size(), off.job->sink_records().size());
  for (size_t i = 0; i < on.job->sink_records().size(); ++i) {
    EXPECT_EQ(on.job->sink_records()[i].tuple,
              off.job->sink_records()[i].tuple);
    EXPECT_EQ(on.job->sink_records()[i].tentative,
              off.job->sink_records()[i].tentative);
    // Latency lineage is part of the simulation itself, so batches carry
    // identical ingest stamps whether or not observability records them.
    EXPECT_EQ(on.job->sink_records()[i].ingest_at,
              off.job->sink_records()[i].ingest_at);
  }
  EXPECT_EQ(on.job->recovery_reports().size(),
            off.job->recovery_reports().size());
  EXPECT_EQ(on.job->frontier(), off.job->frontier());
  // And the disabled run recorded nothing.
  EXPECT_EQ(off.job->trace().size(), 0u);
  EXPECT_TRUE(off.job->metrics().counters().empty());
  EXPECT_TRUE(off.job->metrics().histograms().empty());
  EXPECT_TRUE(off.job->fidelity_timeseries().empty());
}

TEST(ObsIntegrationTest, FailureRunProducesConsistentProfile) {
  JobHarness h(/*observability=*/true);
  h.RunFailureScenario();
  const obs::TraceLog& trace = h.job->trace();

  // The failure shows up as node + task events in causal order.
  const TraceEvent* node_failure =
      trace.FirstOf(TraceEventKind::kNodeFailure);
  ASSERT_NE(node_failure, nullptr);
  EXPECT_DOUBLE_EQ(node_failure->at.seconds(), 10.5);
  const TraceEvent* task_failed = trace.FirstOf(TraceEventKind::kTaskFailed);
  ASSERT_NE(task_failed, nullptr);
  EXPECT_GT(task_failed->seq, node_failure->seq);

  // Every recovery episode completes: detected, restored, caught up.
  auto timelines = obs::BuildRecoveryTimelines(trace);
  ASSERT_FALSE(timelines.empty());
  for (const obs::RecoveryTimeline& tl : timelines) {
    EXPECT_TRUE(tl.detected);
    EXPECT_TRUE(tl.restored);
    EXPECT_TRUE(tl.caught_up);
    EXPECT_GE(tl.RecoveryLatency().micros(), 0);
    EXPECT_GE(tl.RestoreLatency().micros(),
              tl.RecoveryLatency().micros());
  }

  // Tentative-window bounds match the raw sink trace events.
  auto windows = obs::ExtractTentativeWindows(trace);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].closed);
  const TraceEvent* first_tentative =
      trace.FirstOf(TraceEventKind::kSinkBatchTentative);
  ASSERT_NE(first_tentative, nullptr);
  EXPECT_EQ(windows[0].begin, first_tentative->at);
  EXPECT_EQ(windows[0].first_batch, first_tentative->a);
  EXPECT_LT(windows[0].begin, windows[0].end);

  // Checkpoint metrics flow into the named histogram.
  const auto& histograms = h.job->metrics().histograms();
  auto it = histograms.find("checkpoint.duration_us");
  ASSERT_NE(it, histograms.end());
  EXPECT_GT(it->second->count(), 0);
  EXPECT_GE(it->second->Percentile(99), it->second->Percentile(50));
}

// A sink taken over by its active replica can be the last task to
// recover; the replica's buffered output is then the first stable
// delivery after full recovery, so it closes the tentative window. The
// fidelity sample taken at that delivery must already see the promoted
// replica as the live primary (OF = IC = 1), not the dead copy it
// replaced.
TEST(ObsIntegrationTest, ReplicaTakeoverClosingTheWindowSamplesFullFidelity) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid =
      b.AddOperator("mid", 2, InputCorrelation::kIndependent, 0.5);
  OperatorId sink =
      b.AddOperator("sink", 2, InputCorrelation::kIndependent, 0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kOneToOne);
  b.SetSourceRate(src, 40.0);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());

  JobConfig cfg;
  cfg.ft_mode = FtMode::kPpa;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(5);
  cfg.checkpoint_interval = Duration::Seconds(5);
  cfg.replica_sync_interval = Duration::Seconds(2);
  cfg.num_worker_nodes = 6;
  cfg.num_standby_nodes = 2;
  cfg.window_batches = 5;
  cfg.stagger_checkpoints = false;
  backend::SimBackend loop;
  StreamingJob job(*std::move(topo), cfg, JobRuntimeDeps(&loop));
  ASSERT_TRUE(job.BindSource(0, [] {
                   return std::make_unique<SyntheticSource>(20, 64, 7);
                 }).ok());
  for (OperatorId op : {1, 2}) {
    ASSERT_TRUE(job.BindOperator(op, [] {
                     return std::make_unique<SlidingWindowAggregateOperator>(
                         5, 0.5);
                   }).ok());
  }
  // sink[1] (task 5) is actively replicated; mid[0] (task 2) recovers
  // from its checkpoint and punctures sink[0] meanwhile.
  TaskSet active(job.topology().num_tasks());
  active.Add(5);
  ASSERT_TRUE(job.SetActiveReplicaSet(active).ok());
  ASSERT_TRUE(job.Start().ok());

  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  ASSERT_TRUE(job.InjectNodeFailure(2).ok());  // mid[0]: passive recovery.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(15.5));
  ASSERT_TRUE(job.InjectNodeFailure(5).ok());  // sink[1]: replica takeover.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  ASSERT_TRUE(job.AllRecovered());

  // The takeover finished last and its delivery closed the window.
  const auto windows = obs::ExtractTentativeWindows(job.trace());
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_TRUE(windows[0].closed);
  const auto timelines = obs::BuildRecoveryTimelines(job.trace());
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[1].task, 5);
  EXPECT_LT(timelines[0].restored_at, timelines[1].restored_at);
  EXPECT_EQ(windows[0].end, timelines[1].restored_at);

  const auto& samples = job.fidelity_timeseries().samples();
  ASSERT_FALSE(samples.empty());
  const obs::FidelitySample& last = samples.back();
  EXPECT_EQ(last.at, windows[0].end);
  EXPECT_FALSE(last.tentative);
  EXPECT_EQ(last.failed_tasks, 0);
  EXPECT_DOUBLE_EQ(last.output_fidelity, 1.0);
  EXPECT_DOUBLE_EQ(last.internal_completeness, 1.0);
}

// Two jobs share one backend, and the second starts from inside a drive —
// how the multi-tenant service admits a queued tenant mid-run. Start()
// used to re-point the backend's drive bracket at the newest job, so the
// drive ended a span that job never began and aborted.
TEST(ObsIntegrationTest, JobStartedInsideASharedDriveRunsClean) {
  auto make_job = [](backend::SimBackend* loop) {
    TopologyBuilder b;
    OperatorId src = b.AddOperator("src", 1);
    OperatorId sink =
        b.AddOperator("sink", 1, InputCorrelation::kIndependent, 0.5);
    b.Connect(src, sink, PartitionScheme::kOneToOne);
    b.SetSourceRate(src, 20.0);
    auto topo = b.Build();
    PPA_CHECK(topo.ok());
    JobConfig cfg;
    cfg.ft_mode = FtMode::kCheckpoint;
    cfg.batch_interval = Duration::Seconds(1);
    cfg.num_worker_nodes = 2;
    cfg.num_standby_nodes = 1;
    auto job = std::make_unique<StreamingJob>(*std::move(topo), cfg,
                                              JobRuntimeDeps(loop));
    PPA_CHECK_OK(job->BindSource(0, [] {
      return std::make_unique<SyntheticSource>(20, 16, 3);
    }));
    PPA_CHECK_OK(job->BindOperator(1, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(3, 0.5);
    }));
    return job;
  };
  backend::SimBackend loop;
  std::unique_ptr<StreamingJob> first = make_job(&loop);
  std::unique_ptr<StreamingJob> second = make_job(&loop);
  PPA_CHECK_OK(first->Start());
  loop.ScheduleAfter(Duration::Seconds(5.5),
                     [&second] { PPA_CHECK_OK(second->Start()); });
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));

  EXPECT_FALSE(first->sink_records().empty());
  EXPECT_FALSE(second->sink_records().empty());
  EXPECT_LT(second->sink_records().size(), first->sink_records().size());
  EXPECT_GT(second->trace().CountOf(TraceEventKind::kSinkBatchStable), 0);
}

}  // namespace
}  // namespace ppa
