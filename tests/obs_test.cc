// Tests for the observability subsystem (src/obs/): metric semantics,
// histogram percentile math, trace ordering, timeline derivation, JSON
// export shape, and the two properties the runtime integration must hold:
// recording is deterministic, and disabling it does not change the
// simulation.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/execution_backend.h"
#include "backend/sim_backend.h"
#include "common/hash.h"
#include "engine/operators.h"
#include "fidelity/metrics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/experiment_report.h"
#include "runtime/fidelity_series.h"
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

// A flight record is the tail of the job's trace
// (obs::FlightRecordToJson).
TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents) {
  obs::TraceLog trace;
  for (int i = 0; i < 10; ++i) {
    trace.Record(TimePoint::Zero() + Duration::Seconds(i),
                 TraceEventKind::kTaskFailed, i, 0);
  }
  const JsonValue dump = obs::FlightRecordToJson(trace, /*capacity=*/4);
  EXPECT_EQ(dump.Find("recorded")->AsInt(), 10);
  EXPECT_EQ(dump.Find("dropped")->AsInt(), 6);
  // The retained tail is the newest four, oldest first.
  const JsonValue& events = *dump.Find("events");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.at(0).Find("task")->AsString(), "6");
  EXPECT_EQ(events.at(3).Find("task")->AsString(), "9");
}

TEST(FlightRecorderTest, DumpIsByteIdenticalForIdenticalRuns) {
  auto feed = [](obs::TraceLog* trace) {
    for (int i = 0; i < 7; ++i) {
      trace->Record(TimePoint::Zero() + Duration::Seconds(i),
                    TraceEventKind::kCheckpointBegin, i % 3, i, i * 2, i * 3);
    }
  };
  obs::TraceLog a;
  obs::TraceLog b;
  feed(&a);
  feed(&b);
  const JsonValue dump_a = obs::FlightRecordToJson(a, /*capacity=*/4);
  const JsonValue dump_b = obs::FlightRecordToJson(b, /*capacity=*/4);
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
}

TEST(TraceTest, DisabledLogDropsEvents) {
  obs::TraceLog trace;
  trace.set_enabled(false);
  trace.Record(TimePoint::Zero(), TraceEventKind::kNodeFailure);
  EXPECT_EQ(trace.size(), 0u);
  trace.set_enabled(true);
  trace.Record(TimePoint::Zero(), TraceEventKind::kNodeFailure);
  EXPECT_EQ(trace.size(), 1u);
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

/// src(2) -> mid(2) -> sink(1) (tasks 0-1, 2-3 and 4) with sliding-window
/// operators: the job of the integration tests below.
std::unique_ptr<StreamingJob> MakePipelineJob(backend::ExecutionBackend* be,
                                              const JobConfig& cfg) {
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
  auto job = std::make_unique<StreamingJob>(*std::move(topo), cfg,
                                            JobRuntimeDeps(be));
  PPA_CHECK_OK(job->BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job->BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  return job;
}

/// The pipeline job under PPA with mid[1] replicated, on the simulator.
struct JobHarness {
  explicit JobHarness(bool observability,
                      af::RecoveryMode recovery_mode = af::RecoveryMode::kPpa) {
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
    cfg.recovery_mode = recovery_mode;
    job = MakePipelineJob(&loop, cfg);
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
  auto first_of = [&trace](TraceEventKind kind) -> const TraceEvent* {
    for (const TraceEvent& e : trace.events()) {
      if (e.kind == kind) {
        return &e;
      }
    }
    return nullptr;
  };

  // The failure shows up as node + task events in causal order.
  const TraceEvent* node_failure = first_of(TraceEventKind::kNodeFailure);
  ASSERT_NE(node_failure, nullptr);
  EXPECT_DOUBLE_EQ(node_failure->at.seconds(), 10.5);
  const TraceEvent* task_failed = first_of(TraceEventKind::kTaskFailed);
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
      first_of(TraceEventKind::kSinkBatchTentative);
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

// The derived views are pinned to what the job recorded when they were
// stores of their own: the fidelity series verbatim, the flight record by
// size and FNV-1a hash of its serialization.
TEST(ObsIntegrationTest, FidelitySeriesAndFlightRecordGolden) {
  JobHarness h(/*observability=*/true);
  h.RunFailureScenario();
  EXPECT_EQ(
      obs::FidelityTimeseriesToJson(h.job->fidelity_timeseries()).Serialize(),
      R"([{"t_s":12,"batch":11,"sink":"4","tentative":true,)"
      R"("output_fidelity":0.5,"internal_completeness":0.5,"failed_tasks":1},)"
      R"({"t_s":12,"batch":12,"sink":"4","tentative":true,)"
      R"("output_fidelity":0.5,"internal_completeness":0.5,"failed_tasks":1},)"
      R"({"t_s":13,"batch":13,"sink":"4","tentative":false,)"
      R"("output_fidelity":1,"internal_completeness":1,"failed_tasks":0}])");
  const JsonValue flight = JobFlightRecordToJson(*h.job);
  EXPECT_EQ(flight.Find("capacity")->AsInt(), 256);
  EXPECT_EQ(flight.Find("dropped")->AsInt(), 0);
  EXPECT_EQ(flight.Find("recorded")->AsInt(), 190);
  const std::string text = flight.Serialize();
  EXPECT_EQ(text.size(), 15697u);
  EXPECT_EQ(Fnv1a64(text), 0xf89327e8083e5f4bULL);
}

// Pins the whole metrics registry of the failure scenario, exact and
// approximate: which registry entries are booked directly and which are
// folded from the trace must not change a byte of the profile.
TEST(ObsIntegrationTest, MetricsRegistryGolden) {
  struct Case {
    af::RecoveryMode mode;
    size_t size;
    uint64_t hash;
  };
  const Case cases[] = {
      {af::RecoveryMode::kPpa, 3039u, 0x5cc2a322597adbb0ULL},
      {af::RecoveryMode::kApprox, 3180u, 0x3caef45635b9e6c5ULL},
  };
  for (const Case& c : cases) {
    JobHarness h(/*observability=*/true, c.mode);
    h.RunFailureScenario();
    const std::string text = obs::MetricsToJson(h.job->metrics()).Serialize();
    EXPECT_EQ(text.size(), c.size) << af::RecoveryModeToString(c.mode);
    EXPECT_EQ(Fnv1a64(text), c.hash) << af::RecoveryModeToString(c.mode);
  }
}

// Runs a PPA pipeline job whose src[1] and mid[1] have active replicas:
// one correlated failure of the src[1] and both mid nodes recovers src[1]
// and mid[1] from their replicas and mid[0] from its checkpoint, and the
// sink emits tentative output meanwhile. Under approximate recovery the
// tight budget thins the checkpoint chains, so mid[0] forfeits records.
// With `read_mid_run`, metrics() is read once before the failure.
std::unique_ptr<StreamingJob> RunFoldDrill(backend::ExecutionBackend* be,
                                           af::RecoveryMode mode,
                                           bool read_mid_run) {
  JobConfig cfg;
  cfg.ft_mode = FtMode::kPpa;
  cfg.recovery_mode = mode;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(3);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 5;
  cfg.stagger_checkpoints = false;
  cfg.error_budget.task_divergence_records = 100;
  cfg.error_budget.job_divergence_records = 10'000;
  cfg.error_budget.max_certified_loss = 1.0;
  auto job = MakePipelineJob(be, cfg);
  TaskSet active(job->topology().num_tasks());
  active.Add(1);
  active.Add(3);
  PPA_CHECK_OK(job->SetActiveReplicaSet(active));
  PPA_CHECK_OK(job->Start());
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(16.5));
  if (read_mid_run) {
    (void)job->metrics();
  }
  std::vector<int> nodes;
  for (TaskId t : {1, 2, 3}) {
    nodes.push_back(job->cluster().NodeOfPrimary(t));
  }
  for (int node : nodes) {
    PPA_CHECK_OK(job->InjectNodeFailure(node));
  }
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  return job;
}

// The registry entries folded from the trace agree with the job's own
// accounting, which never reads the trace, on both backends.
TEST(TraceMetricsTest, FoldMatchesJobState) {
  for (backend::BackendKind kind :
       {backend::BackendKind::kSim, backend::BackendKind::kThreads}) {
    for (af::RecoveryMode mode :
         {af::RecoveryMode::kPpa, af::RecoveryMode::kApprox}) {
      SCOPED_TRACE(backend::BackendKindToString(kind) + " " +
                   std::string(af::RecoveryModeToString(mode)));
      auto be = backend::MakeBackend(kind);
      auto job = RunFoldDrill(be.get(), mode, /*read_mid_run=*/false);
      ASSERT_TRUE(job->AllRecovered());
      const obs::MetricsRegistry& m = job->metrics();
      auto counter = [&m](const char* name) {
        return m.counters().at(name)->value();
      };

      int64_t active = 0;
      int64_t passive = 0;
      Duration active_latency = Duration::Zero();
      Duration passive_latency = Duration::Zero();
      for (const RecoveryReport& r : job->recovery_reports()) {
        for (const TaskRecoverySpec& spec : r.specs) {
          ++(spec.kind == RecoveryKind::kActiveReplica ? active : passive);
        }
        active_latency = std::max(active_latency, r.ActiveLatency());
        passive_latency = std::max(passive_latency, r.PassiveLatency());
      }
      EXPECT_EQ(active, 2);
      EXPECT_EQ(passive, 1);
      EXPECT_EQ(counter("recovery.active_started"), active);
      EXPECT_EQ(counter("recovery.passive_started"), passive);
      const auto& hist = m.histograms();
      EXPECT_EQ(hist.at("recovery.latency_s")->count(), active + passive);
      EXPECT_EQ(hist.at("recovery.active_latency_s")->count(), active);
      EXPECT_EQ(hist.at("recovery.passive_latency_s")->count(), passive);
      EXPECT_EQ(hist.at("recovery.active_latency_s")->max(),
                active_latency.seconds());
      EXPECT_EQ(hist.at("recovery.passive_latency_s")->max(),
                passive_latency.seconds());

      int64_t records = 0;
      int64_t tentative = 0;
      for (const SinkRecord& r : job->sink_records()) {
        records += r.correction ? 0 : 1;
        tentative += !r.correction && r.tentative ? 1 : 0;
      }
      EXPECT_GT(tentative, 0);
      EXPECT_EQ(counter("sink.records"), records);
      EXPECT_EQ(counter("sink.tentative_records"), tentative);

      int64_t checkpoints = 0;
      for (TaskId t = 0; t < job->topology().num_tasks(); ++t) {
        checkpoints += job->CheckpointCount(t);
      }
      const obs::Histogram* bytes = hist.at("checkpoint.bytes").get();
      EXPECT_GT(checkpoints, 0);
      EXPECT_EQ(bytes->count(), checkpoints);
      EXPECT_EQ(static_cast<int64_t>(bytes->sum()),
                job->CheckpointBytesWritten());

      if (mode == af::RecoveryMode::kPpa) {
        EXPECT_EQ(m.counters().count("af.checkpoints_skipped"), 0u);
        EXPECT_EQ(m.counters().count("af.forfeited_records"), 0u);
        continue;
      }
      int64_t forfeited = 0;
      for (const af::ApproxCertificate& cert : job->approx_certificates()) {
        forfeited += cert.forfeited.records;
      }
      EXPECT_GT(job->CheckpointsSkipped(), 0);
      EXPECT_GT(forfeited, 0);
      EXPECT_EQ(counter("af.checkpoints_skipped"), job->CheckpointsSkipped());
      EXPECT_EQ(counter("af.forfeited_records"), forfeited);
    }
  }
}

// metrics() folds only the events recorded since its last call: a job
// read mid-run ends with the same registry as a twin read only at the end.
TEST(TraceMetricsTest, MidRunReadBooksEachEventOnce) {
  for (backend::BackendKind kind :
       {backend::BackendKind::kSim, backend::BackendKind::kThreads}) {
    for (af::RecoveryMode mode :
         {af::RecoveryMode::kPpa, af::RecoveryMode::kApprox}) {
      SCOPED_TRACE(backend::BackendKindToString(kind) + " " +
                   std::string(af::RecoveryModeToString(mode)));
      auto read_be = backend::MakeBackend(kind);
      auto twin_be = backend::MakeBackend(kind);
      auto read = RunFoldDrill(read_be.get(), mode, /*read_mid_run=*/true);
      auto twin = RunFoldDrill(twin_be.get(), mode, /*read_mid_run=*/false);
      EXPECT_EQ(obs::MetricsToJson(read->metrics()).Serialize(),
                obs::MetricsToJson(twin->metrics()).Serialize());
    }
  }
}

// DeriveFidelitySeries on a hand-built trace of src(2) -> mid(2) ->
// sink(1): a takeover delivery proves the sink alive, stable deliveries
// outside a window yield nothing, and a task failing twice is re-marked.
TEST(DeriveFidelitySeriesTest, FoldsFailuresTakeoversAndWindows) {
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
  ASSERT_TRUE(topo.ok());
  constexpr int64_t kMid0 = 2;
  constexpr int64_t kSink = 4;

  obs::TraceLog trace;
  auto at = [](int s) { return TimePoint::Zero() + Duration::Seconds(s); };
  trace.Record(at(1), TraceEventKind::kSinkBatchStable, kSink, -1, 1, 10);
  // Episode 1: mid[0] and the sink fail; the sink's replica takes over
  // and delivers before recovery-done.
  trace.Record(at(2), TraceEventKind::kTaskFailed, kMid0, 2);
  trace.Record(at(2), TraceEventKind::kTaskFailed, kSink, 4);
  trace.Record(at(3), TraceEventKind::kSinkBatchTentative, kSink, -1, 3, 5);
  trace.Record(at(3), TraceEventKind::kTentativeWindowBegin, -1, -1, 3);
  trace.Record(at(3), TraceEventKind::kRecoveryDone, kSink, -1, 0);
  trace.Record(at(4), TraceEventKind::kRecoveryDone, kMid0, -1, 1);
  trace.Record(at(5), TraceEventKind::kSinkBatchStable, kSink, -1, 5, 10);
  trace.Record(at(5), TraceEventKind::kTentativeWindowEnd, -1, -1, 3);
  trace.Record(at(6), TraceEventKind::kSinkBatchStable, kSink, -1, 6, 10);
  // Episode 2: mid[0] fails again.
  trace.Record(at(7), TraceEventKind::kTaskFailed, kMid0, 2);
  trace.Record(at(8), TraceEventKind::kSinkBatchTentative, kSink, -1, 8, 5);
  trace.Record(at(8), TraceEventKind::kTentativeWindowBegin, -1, -1, 8);
  trace.Record(at(9), TraceEventKind::kRecoveryDone, kMid0, -1, 1);
  trace.Record(at(10), TraceEventKind::kSinkBatchStable, kSink, -1, 10, 10);
  trace.Record(at(10), TraceEventKind::kTentativeWindowEnd, -1, -1, 8);

  const std::vector<obs::FidelitySample> series =
      DeriveFidelitySeries(*topo, trace);
  TaskSet mid0_failed(topo->num_tasks());
  mid0_failed.Add(kMid0);
  const double of = ComputeOutputFidelity(*topo, mid0_failed);
  const double ic = ComputeInternalCompleteness(*topo, mid0_failed);
  ASSERT_LT(of, 1.0);
  const std::vector<obs::FidelitySample> expected = {
      {at(3), 3, kSink, true, of, ic, 1},
      {at(5), 5, kSink, false, 1.0, 1.0, 0},
      {at(8), 8, kSink, true, of, ic, 1},
      {at(10), 10, kSink, false, 1.0, 1.0, 0},
  };
  EXPECT_EQ(series, expected);
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

  const std::vector<obs::FidelitySample> samples = job.fidelity_timeseries();
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
