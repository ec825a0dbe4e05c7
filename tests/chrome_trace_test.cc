// Tests for the Chrome/Perfetto trace exporter (src/obs/chrome_trace.*):
// an exact golden-JSON test of the Trace Event Format mapping (including
// the checkpoint and recovery durations derived from the trace), and an
// end-to-end correlated-failure run checked against the observability
// acceptance criteria (tentative window in the trace, per-sink stable vs
// tentative latency histograms, and a fidelity timeseries with at least
// one sample per tentative sink batch).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/experiment_report.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using obs::TraceEventKind;

TEST(ChromeTraceTest, EmptyTraceIsValidAndStable) {
  EXPECT_EQ(obs::EmptyChromeTrace().Serialize(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

// Pins the exact Trace Event Format serialization: metadata first, then
// the trace-derived durations (ph "X": checkpoints, recoveries, closed
// tentative windows), then instants (ph "i"), all with microsecond
// timestamps and the pid/tid track layout (0 = job, 1 = cluster,
// 2 = tasks).
TEST(ChromeTraceTest, GoldenJson) {
  const TimePoint t0 = TimePoint::Zero();
  auto at = [&](int64_t us) { return t0 + Duration::Micros(us); };
  obs::TraceLog trace;
  trace.Record(at(1000000), TraceEventKind::kNodeFailure,
               /*task=*/-1, /*node=*/3, /*a=*/1);
  trace.Record(at(1000000), TraceEventKind::kTaskFailed, /*task=*/1,
               /*node=*/3);
  // A checkpoint of task 2: 512 bytes, 100 ms of modeled capture cost.
  trace.Record(at(1500000), TraceEventKind::kCheckpointBegin, 2, -1,
               /*a=*/4);
  trace.Record(at(1600000), TraceEventKind::kCheckpointEnd, 2, -1,
               /*a=*/512, /*b=*/100000);
  trace.Record(at(2000000), TraceEventKind::kTentativeWindowBegin, -1, -1,
               /*a=*/5);
  // Task 1 is detected at 2.5 s and restored (kind 1) half a second later.
  trace.Record(at(2500000), TraceEventKind::kRecoveryStart, 1, -1,
               /*a=*/1, /*b=*/500000);
  trace.Record(at(3000000), TraceEventKind::kRecoveryDone, 1, -1, /*a=*/1);
  trace.Record(at(4000000), TraceEventKind::kTentativeWindowEnd, -1, -1,
               /*a=*/7);

  const std::string json =
      obs::ChromeTraceToJson(trace, [](int64_t task) {
        return "task-" + std::to_string(task);
      }).Serialize();

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"job\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"cluster\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"tasks\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"control\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"node 3\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"task-1\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":2,"
      "\"args\":{\"name\":\"task-2\"}},"
      "{\"name\":\"checkpoint\",\"cat\":\"checkpoint\",\"ph\":\"X\","
      "\"ts\":1500000,\"dur\":100000,\"pid\":2,\"tid\":2,"
      "\"args\":{\"bytes\":512}},"
      "{\"name\":\"recovery\",\"cat\":\"recovery\",\"ph\":\"X\","
      "\"ts\":2500000,\"dur\":500000,\"pid\":2,\"tid\":1,"
      "\"args\":{\"recovery_kind\":1}},"
      "{\"name\":\"tentative-window\",\"cat\":\"window\",\"ph\":\"X\","
      "\"ts\":2000000,\"dur\":2000000,\"pid\":0,\"tid\":0,"
      "\"args\":{\"first_batch\":5,\"last_batch\":7}},"
      "{\"name\":\"node-failure\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":1000000,\"pid\":1,\"tid\":3,\"s\":\"t\","
      "\"args\":{\"seq\":0,\"node\":3,\"a\":1,\"b\":0}},"
      "{\"name\":\"task-failed\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":1000000,\"pid\":2,\"tid\":1,\"s\":\"t\","
      "\"args\":{\"seq\":1,\"task\":\"task-1\",\"node\":3,\"a\":0,"
      "\"b\":0}},"
      "{\"name\":\"checkpoint-begin\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":1500000,\"pid\":2,\"tid\":2,\"s\":\"t\","
      "\"args\":{\"seq\":2,\"task\":\"task-2\",\"a\":4,\"b\":0}},"
      "{\"name\":\"checkpoint-end\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":1600000,\"pid\":2,\"tid\":2,\"s\":\"t\","
      "\"args\":{\"seq\":3,\"task\":\"task-2\",\"a\":512,\"b\":100000}},"
      "{\"name\":\"tentative-window-begin\",\"cat\":\"trace\","
      "\"ph\":\"i\",\"ts\":2000000,\"pid\":0,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"seq\":4,\"a\":5,\"b\":0}},"
      "{\"name\":\"recovery-start\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":2500000,\"pid\":2,\"tid\":1,\"s\":\"t\","
      "\"args\":{\"seq\":5,\"task\":\"task-1\",\"a\":1,\"b\":500000}},"
      "{\"name\":\"recovery-done\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":3000000,\"pid\":2,\"tid\":1,\"s\":\"t\","
      "\"args\":{\"seq\":6,\"task\":\"task-1\",\"a\":1,\"b\":0}},"
      "{\"name\":\"tentative-window-end\",\"cat\":\"trace\",\"ph\":\"i\","
      "\"ts\":4000000,\"pid\":0,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"seq\":7,\"a\":7,\"b\":0}}"
      "]}";
  EXPECT_EQ(json, expected);
}

/// src(2) -> mid(2) -> sink(1) job mirroring the obs_test harness: PPA
/// mode, one replica on mid[1], and a node failure that kills the
/// passive-only mid[0] so the sink degrades to tentative output.
struct JobHarness {
  JobHarness() {
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
    cfg.observability = true;

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
    active.Add(3);
    PPA_CHECK_OK(job->SetActiveReplicaSet(active));
    PPA_CHECK_OK(job->Start());
  }

  void RunFailureScenario() {
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
    PPA_CHECK_OK(job->InjectNodeFailure(2));
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  }

  backend::SimBackend loop;
  std::unique_ptr<StreamingJob> job;
};

TEST(ChromeTraceIntegrationTest, FailureRunMeetsAcceptanceCriteria) {
  JobHarness h;
  h.RunFailureScenario();

  // (a) The exported trace is Perfetto-shaped and shows the tentative
  // window, the checkpoints and the injected recovery as duration events,
  // all derived from the trace: one per modeled checkpoint and one per
  // restored recovery episode.
  const std::string json = JobChromeTraceToJson(*h.job).Serialize();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"tentative-window\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"span\""), std::string::npos);
  auto count = [&json](const std::string& needle) {
    int64_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  int64_t modeled_checkpoints = 0;
  for (const obs::TraceEvent& e : h.job->trace().events()) {
    modeled_checkpoints +=
        e.kind == TraceEventKind::kCheckpointEnd && e.b > 0 ? 1 : 0;
  }
  EXPECT_GT(modeled_checkpoints, 0);
  EXPECT_EQ(count("\"cat\":\"checkpoint\""), modeled_checkpoints);
  int64_t restored = 0;
  for (const obs::RecoveryTimeline& tl :
       obs::BuildRecoveryTimelines(h.job->trace())) {
    restored += tl.restored ? 1 : 0;
  }
  EXPECT_GT(restored, 0);
  EXPECT_EQ(count("\"cat\":\"recovery\""), restored);

  // (b) Per-sink stable vs tentative end-to-end latency histograms are
  // populated (task 4 is the single sink task).
  const auto& histograms = h.job->metrics().histograms();
  for (const char* name :
       {"sink.latency_stable_s", "sink.latency_tentative_s",
        "sink.t4.latency_stable_s", "sink.t4.latency_tentative_s"}) {
    auto it = histograms.find(name);
    ASSERT_NE(it, histograms.end()) << name;
    EXPECT_GT(it->second->count(), 0) << name;
    EXPECT_GE(it->second->min(), 0.0) << name;
  }
  // Lineage depth: every sink batch crossed src -> mid -> sink.
  auto hops = histograms.find("sink.lineage_hops");
  ASSERT_NE(hops, histograms.end());
  EXPECT_GT(hops->second->count(), 0);
  EXPECT_DOUBLE_EQ(hops->second->max(), 3.0);
  EXPECT_GE(hops->second->min(), 1.0);
  for (const SinkRecord& r : h.job->sink_records()) {
    EXPECT_GE(r.Latency().micros(), 0);
  }

  // (c) The fidelity timeseries has at least one sample per tentative
  // sink batch, dips below OF = 1 while degraded, and closes at OF = 1.
  const std::vector<obs::FidelitySample> fidelity =
      h.job->fidelity_timeseries();
  const int64_t tentative_batches =
      h.job->trace().CountOf(TraceEventKind::kSinkBatchTentative);
  ASSERT_GT(tentative_batches, 0);
  int64_t tentative_samples = 0;
  bool degraded_sample = false;
  double min_output_fidelity = 1.0;
  for (const obs::FidelitySample& s : fidelity) {
    min_output_fidelity = std::min(min_output_fidelity, s.output_fidelity);
    if (s.tentative) {
      ++tentative_samples;
    }
    if (s.tentative && s.output_fidelity < 1.0) {
      degraded_sample = true;
      EXPECT_GT(s.failed_tasks, 0);
    }
  }
  EXPECT_GE(tentative_samples, tentative_batches);
  EXPECT_TRUE(degraded_sample);
  EXPECT_LT(min_output_fidelity, 1.0);
  ASSERT_FALSE(fidelity.empty());
  const obs::FidelitySample& last = fidelity.back();
  EXPECT_FALSE(last.tentative);
  EXPECT_DOUBLE_EQ(last.output_fidelity, 1.0);
  EXPECT_EQ(last.failed_tasks, 0);

  // The run profile carries the derived sections for report consumers;
  // spans are Chrome-trace views only, not a profile section.
  const std::string profile = JobProfileToJson(*h.job).Serialize();
  EXPECT_EQ(profile.find("\"spans\""), std::string::npos);
  EXPECT_NE(profile.find("\"fidelity_timeseries\""), std::string::npos);
  EXPECT_NE(profile.find("\"sink.latency_tentative_s\""),
            std::string::npos);
}

}  // namespace
}  // namespace ppa
