#include <cstdint>
#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "fidelity/metrics.h"
#include "planner/structure_aware_planner.h"
#include "workloads/accuracy.h"
#include "workloads/incident.h"
#include "workloads/numbered_keys.h"
#include "workloads/synthetic_recovery.h"
#include "workloads/topk.h"

namespace ppa {
namespace {

JobConfig SmallConfig(FtMode mode, int workers, int standbys) {
  JobConfig cfg;
  cfg.ft_mode = mode;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(5);
  cfg.replica_sync_interval = Duration::Seconds(2);
  cfg.num_worker_nodes = workers;
  cfg.num_standby_nodes = standbys;
  cfg.stagger_checkpoints = false;
  return cfg;
}

TEST(SyntheticRecoveryTest, TopologyMatchesFig6) {
  auto w = MakeSyntheticRecoveryWorkload(1000, 10);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->topo.num_operators(), 5);
  EXPECT_EQ(w->topo.num_tasks(), 16 + 8 + 4 + 2 + 1);
  EXPECT_EQ(w->topo.op(w->source).parallelism, 16);
  EXPECT_EQ(w->topo.op(w->o4).parallelism, 1);
  // Every synthetic task drains exactly two upstream tasks.
  for (OperatorId op : {w->o1, w->o2, w->o3, w->o4}) {
    for (TaskId t : w->topo.op(op).tasks) {
      EXPECT_EQ(w->topo.task(t).in_substreams.size(), 2u);
    }
  }
}

TEST(SyntheticRecoveryTest, PlacementPinsSourcesAndSynthetics) {
  auto w = MakeSyntheticRecoveryWorkload(100, 5);
  ASSERT_TRUE(w.ok());
  backend::SimBackend loop;
  JobConfig cfg = SmallConfig(FtMode::kCheckpoint, 19, 15);
  StreamingJob job(w->topo, cfg, JobRuntimeDeps(&loop));
  ASSERT_TRUE(BindSyntheticRecoveryWorkload(*w, &job).ok());
  auto nodes = PlaceSyntheticRecoveryWorkload(*w, &job);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 15u);
  // Source nodes 0-3 are not among the synthetic nodes.
  for (int node : *nodes) {
    EXPECT_GE(node, 4);
  }
  ASSERT_TRUE(job.Start().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(5));
  EXPECT_FALSE(job.sink_records().empty());
}

TEST(SyntheticRecoveryTest, RunsAndRecoversFromCorrelatedFailure) {
  auto w = MakeSyntheticRecoveryWorkload(100, 5);
  ASSERT_TRUE(w.ok());
  backend::SimBackend loop;
  StreamingJob job(w->topo, SmallConfig(FtMode::kCheckpoint, 19, 15), JobRuntimeDeps(&loop));
  ASSERT_TRUE(BindSyntheticRecoveryWorkload(*w, &job).ok());
  ASSERT_TRUE(PlaceSyntheticRecoveryWorkload(*w, &job).ok());
  ASSERT_TRUE(job.Start().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(12.2));
  ASSERT_TRUE(job.InjectCorrelatedFailure().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(90));
  EXPECT_TRUE(job.AllRecovered());
  ASSERT_EQ(job.recovery_reports().size(), 1u);
  EXPECT_EQ(job.recovery_reports()[0].specs.size(), 15u);
}

TEST(WorldCupSourceTest, DeterministicAndZipfSkewed) {
  WorldCupSource::Options opts;
  opts.tuples_per_batch_per_task = 5000;
  WorldCupSource a(opts), b(opts);
  auto ta = a.NextBatch(3, 1);
  auto tb = b.NextBatch(3, 1);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
  }
  // Popularity skew: url0 much more frequent than url100.
  int url0 = 0, url100 = 0;
  for (const Tuple& t : ta) {
    url0 += t.key == "url0";
    url100 += t.key == "url100";
  }
  EXPECT_GT(url0, url100 * 2);
}

TEST(WorldCupSourceTest, RateWaveModulatesVolume) {
  WorldCupSource::Options opts;
  opts.tuples_per_batch_per_task = 1000;
  opts.rate_wave_amplitude = 0.5;
  opts.rate_wave_period_batches = 20;
  WorldCupSource src(opts);
  // Peak of the wave (quarter period) vs trough (three quarters).
  const size_t peak = src.NextBatch(5, 0).size();
  const size_t trough = src.NextBatch(15, 0).size();
  EXPECT_GT(peak, 1400u);
  EXPECT_LT(trough, 600u);
  // Different tasks are phase-shifted: not all peak together.
  const size_t other = src.NextBatch(5, 4).size();
  EXPECT_NE(other, peak);
  // Determinism still holds.
  WorldCupSource again(opts);
  EXPECT_EQ(again.NextBatch(5, 0).size(), peak);
}

/// FNV-1a over the key bytes and values of batches 0-3 of tasks 0-2.
uint64_t BatchDigest(SourceFunction* source) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (int64_t batch = 0; batch < 4; ++batch) {
    for (int task = 0; task < 3; ++task) {
      for (const Tuple& t : source->NextBatch(batch, task)) {
        mix(t.key.data(), t.key.size());
        mix(&t.value, sizeof(t.value));
      }
    }
  }
  return h;
}

// Pins the seeded input streams byte for byte. The digests were taken
// while sources still formatted every key per tuple, so a key table that
// differs from TupleKey::Numbered fails here.
TEST(SyntheticSourceTest, BatchesMatchParentDigest) {
  SyntheticSource fig6(2000, 1024, 42);
  EXPECT_EQ(BatchDigest(&fig6), 6306156114158826290ull);
  SyntheticSource wide(1, 256, 43);
  EXPECT_EQ(BatchDigest(&wide), 12040808460068264649ull);

  WorldCupSource::Options wc;
  wc.tuples_per_batch_per_task = 500;
  wc.rate_wave_amplitude = 0.5;
  wc.rate_wave_period_batches = 8;
  WorldCupSource worldcup(wc);
  EXPECT_EQ(BatchDigest(&worldcup), 9716801606308365737ull);

  IncidentSchedule::Options io;
  io.num_segments = 200;
  io.num_users = 5000;
  const IncidentSchedule schedule(io);
  LocationSource location(&schedule, 400, 11);
  EXPECT_EQ(BatchDigest(&location), 3252934722049661262ull);
  IncidentReportSource reports(&schedule, 3);
  EXPECT_EQ(BatchDigest(&reports), 14185208087747730473ull);
}

// Sources built at the same time on several threads look up (and, the
// first time, build) one key table per key space; every thread's batches
// equal a serial run's.
TEST(SyntheticSourceTest, ConcurrentSourcesShareOneTable) {
  constexpr int kThreads = 4;
  const int key_spaces[] = {16, 256, 1024};
  auto draw = [&key_spaces] {
    std::vector<uint64_t> digests;
    for (int key_space : key_spaces) {
      SyntheticSource source(64, key_space, 5);
      digests.push_back(BatchDigest(&source));
    }
    return digests;
  };
  std::vector<std::vector<uint64_t>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      concurrent[static_cast<size_t>(i)] = draw();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<uint64_t> serial = draw();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(concurrent[static_cast<size_t>(i)], serial) << "thread " << i;
  }
  const TupleKey* keys = NumberedKeys("k", 256);
  EXPECT_EQ(keys, NumberedKeys("k", 256));
  EXPECT_EQ(keys[255], "k255");
}

// An empty key space would reach `h % 0`; the key table refuses it and
// names the domain.
TEST(SyntheticSourceDeathTest, EmptyKeySpaceIsFatalAndNamesIt) {
  EXPECT_DEATH(SyntheticSource(10, 0, 1),
               "key table 'k' needs at least 1 key, got 0");
  EXPECT_DEATH(NumberedKeys("url", -3),
               "key table 'url' needs at least 1 key, got -3");
}

TEST(TopKOperatorTest, EmitsTopKByValue) {
  TopKOperator op(2, 10);
  BatchContext ctx(0, 0, 1);
  std::vector<Tuple> inputs;
  for (const auto& [k, v] : std::vector<std::pair<std::string, int64_t>>{
           {"a", 5}, {"b", 9}, {"c", 7}}) {
    Tuple t;
    t.key = k;
    t.value = v;
    inputs.push_back(std::move(t));
  }
  op.ProcessBatch(&ctx, inputs);
  ASSERT_EQ(ctx.emitted().size(), 2u);
  EXPECT_EQ(ctx.emitted()[0].key, "b");
  EXPECT_EQ(ctx.emitted()[1].key, "c");
}

TEST(TopKOperatorTest, KeepsLatestValueAndEvicts) {
  TopKOperator op(10, 2);
  {
    BatchContext ctx(0, 0, 1);
    Tuple t;
    t.key = "a";
    t.value = 100;
    op.ProcessBatch(&ctx, {t});
  }
  {
    BatchContext ctx(1, 0, 1);
    Tuple t;
    t.key = "a";
    t.value = 5;  // Latest wins, not max.
    op.ProcessBatch(&ctx, {t});
    ASSERT_EQ(ctx.emitted().size(), 1u);
    EXPECT_EQ(ctx.emitted()[0].value, 5);
  }
  {
    // Two empty batches later, "a" is evicted.
    BatchContext c2(2, 0, 1);
    op.ProcessBatch(&c2, {});
    BatchContext c3(3, 0, 1);
    op.ProcessBatch(&c3, {});
    EXPECT_EQ(op.StateSizeTuples(), 0);
  }
}

TEST(TopKWorkloadTest, CleanRunProducesStableTopK) {
  WorldCupSource::Options opts;
  opts.tuples_per_batch_per_task = 500;
  opts.url_population = 500;
  auto w = MakeTopKWorkload(opts, /*count_window_batches=*/10, /*k=*/20);
  ASSERT_TRUE(w.ok());
  backend::SimBackend loop;
  StreamingJob job(w->topo, SmallConfig(FtMode::kCheckpoint, 21, 10), JobRuntimeDeps(&loop));
  ASSERT_TRUE(BindTopKWorkload(*w, &job).ok());
  ASSERT_TRUE(job.Start().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  // The final batches contain a top-20 dominated by hot urls.
  auto keys = SinkKeySet(job.sink_records(), 15, 19);
  EXPECT_FALSE(keys.empty());
  EXPECT_TRUE(keys.count("url0") == 1);
  EXPECT_TRUE(keys.count("url1") == 1);
}

TEST(TopKWorkloadTest, PpaTentativeAccuracyDegradesGracefully) {
  WorldCupSource::Options opts;
  opts.tuples_per_batch_per_task = 300;
  opts.url_population = 300;
  auto w = MakeTopKWorkload(opts, 10, 20);
  ASSERT_TRUE(w.ok());

  // Slow down passive recovery so the tentative window spans the
  // measurement range (the paper's recoveries take tens of seconds).
  JobConfig ppa_cfg = SmallConfig(FtMode::kPpa, 21, 21);
  ppa_cfg.recovery.replay_rate_tuples_per_sec = 200.0;
  ppa_cfg.recovery.task_restart_delay = Duration::Seconds(5);

  struct Outcome {
    std::vector<SinkRecord> records;
    int64_t tentative_end_batch = 0;
  };
  auto run = [&](int budget) {
    backend::SimBackend loop;
    StreamingJob job(w->topo, ppa_cfg, JobRuntimeDeps(&loop));
    PPA_CHECK_OK(BindTopKWorkload(*w, &job));
    TaskSet plan(w->topo.num_tasks());
    if (budget > 0) {
      StructureAwarePlanner planner;
      auto p = planner.Plan({w->topo, budget});
      PPA_CHECK_OK(p.status());
      plan = p->replicated;
    }
    PPA_CHECK_OK(job.SetActiveReplicaSet(plan));
    PPA_CHECK_OK(job.Start());
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(15.3));
    PPA_CHECK_OK(job.InjectCorrelatedFailure(/*include_sources=*/true));
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    Outcome outcome;
    outcome.records = job.sink_records();
    PPA_CHECK(job.recovery_reports().size() == 1);
    const RecoveryReport& report = job.recovery_reports()[0];
    // The tentative phase ends when passive recovery completes.
    outcome.tentative_end_batch =
        (report.detection_time + report.PassiveLatency()).micros() /
        ppa_cfg.batch_interval.micros();
    return outcome;
  };

  // Reference: failure-free run.
  backend::SimBackend clean_loop;
  StreamingJob clean(w->topo, SmallConfig(FtMode::kPpa, 21, 21),
                     JobRuntimeDeps(&clean_loop));
  PPA_CHECK_OK(BindTopKWorkload(*w, &clean));
  PPA_CHECK_OK(clean.Start());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));

  const Outcome some = run(w->topo.num_tasks() / 2);
  const Outcome none = run(0);

  // Measurement window: from detection (16 s) until the earliest passive
  // recovery completion of the two runs; only timely outputs count —
  // recovery replay delivers old batches late.
  const int64_t window_end =
      std::min(some.tentative_end_batch, none.tentative_end_batch) - 1;
  ASSERT_GT(window_end, 17);
  const Duration interval = ppa_cfg.batch_interval;
  const double with_plan =
      PerBatchSetAccuracy(FilterTimely(some.records, interval, 0),
                          clean.sink_records(), 17, window_end);
  const double without_plan =
      PerBatchSetAccuracy(FilterTimely(none.records, interval, 0),
                          clean.sink_records(), 17, window_end);
  EXPECT_LE(with_plan, 1.0);
  EXPECT_NEAR(without_plan, 0.0, 1e-9)
      << "with no replicas and every task failed, no tentative output "
         "can be produced";
  EXPECT_GT(with_plan, without_plan)
      << "replicating half the tasks must improve tentative accuracy";
}

TEST(IncidentScheduleTest, DeterministicAndPopulationWeighted) {
  IncidentSchedule::Options opts;
  opts.num_segments = 100;
  opts.num_users = 10000;
  IncidentSchedule a(opts), b(opts);
  int64_t total_pop = 0;
  for (int s = 0; s < opts.num_segments; ++s) {
    EXPECT_EQ(a.Population(s), b.Population(s));
    total_pop += a.Population(s);
  }
  // Rounding keeps the total close to the configured population.
  EXPECT_NEAR(static_cast<double>(total_pop), 10000.0, 200.0);
  // Zipf rank 0 is the most crowded segment.
  EXPECT_GT(a.Population(0), a.Population(opts.num_segments - 1));
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a.SegmentOfIncident(i), b.SegmentOfIncident(i));
  }
}

TEST(IncidentScheduleTest, IncidentTimingAndJam) {
  IncidentSchedule::Options opts;
  opts.incident_period_batches = 2;
  opts.jam_batches = 4;
  IncidentSchedule sched(opts);
  EXPECT_EQ(sched.IncidentStartingAt(0), 0);
  EXPECT_EQ(sched.IncidentStartingAt(1), -1);
  EXPECT_EQ(sched.IncidentStartingAt(2), 1);
  const int seg = sched.SegmentOfIncident(3);  // Starts at batch 6.
  EXPECT_TRUE(sched.Jammed(seg, 6));
  EXPECT_TRUE(sched.Jammed(seg, 9));
  auto ids = sched.IncidentsIn(0, 6);
  EXPECT_EQ(ids.size(), 4u);  // Incidents 0..3.
}

TEST(IncidentWorkloadTest, CleanRunDetectsScheduledIncidents) {
  IncidentSchedule::Options opts;
  opts.num_segments = 50;
  opts.num_users = 2000;
  opts.incident_period_batches = 2;
  opts.jam_batches = 6;
  IncidentSchedule schedule(opts);
  auto w = MakeIncidentWorkload(opts, /*location_rate_per_task=*/400);
  ASSERT_TRUE(w.ok());
  backend::SimBackend loop;
  StreamingJob job(w->topo, SmallConfig(FtMode::kCheckpoint, 25, 10), JobRuntimeDeps(&loop));
  ASSERT_TRUE(BindIncidentWorkload(*w, &schedule, &job).ok());
  ASSERT_TRUE(job.Start().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  const auto alarms = SinkKeySet(job.sink_records(), 0, 29);
  EXPECT_FALSE(alarms.empty());
  // Every alarm corresponds to a scheduled incident.
  for (const std::string& alarm : alarms) {
    ASSERT_EQ(alarm.substr(0, 3), "inc");
    const int64_t id = std::stoll(alarm.substr(3));
    EXPECT_GE(id, 0);
    EXPECT_LE(id, 29 / opts.incident_period_batches);
  }
  // A healthy majority of incidents in the steady window is detected.
  const auto expected = schedule.IncidentsIn(5, 25);
  size_t detected = 0;
  for (int64_t id : expected) {
    detected += alarms.count("inc" + std::to_string(id));
  }
  EXPECT_GT(static_cast<double>(detected),
            0.6 * static_cast<double>(expected.size()));
}

TEST(IncidentWorkloadTest, JoinRequiresBothStreams) {
  // Failing every speed task (without replicas) suppresses alarms even
  // though incident reports still flow: the join operator's correlated
  // input makes the lost speed stream fatal once the pre-failure speed
  // observations expire.
  IncidentSchedule::Options opts;
  opts.num_segments = 50;
  opts.num_users = 2000;
  IncidentSchedule schedule(opts);
  auto w = MakeIncidentWorkload(opts, 400);
  ASSERT_TRUE(w.ok());
  JobConfig cfg = SmallConfig(FtMode::kPpa, 25, 10);
  // Keep the speed tasks down for the whole measurement window.
  cfg.recovery.replay_rate_tuples_per_sec = 100.0;
  cfg.recovery.task_restart_delay = Duration::Seconds(20);

  // Reference: failure-free run.
  backend::SimBackend clean_loop;
  StreamingJob clean(w->topo, cfg, JobRuntimeDeps(&clean_loop));
  ASSERT_TRUE(BindIncidentWorkload(*w, &schedule, &clean).ok());
  ASSERT_TRUE(clean.Start().ok());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));

  backend::SimBackend loop;
  StreamingJob job(w->topo, cfg, JobRuntimeDeps(&loop));
  ASSERT_TRUE(BindIncidentWorkload(*w, &schedule, &job).ok());
  ASSERT_TRUE(job.SetActiveReplicaSet(TaskSet(w->topo.num_tasks())).ok());
  ASSERT_TRUE(job.Start().ok());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.4));
  // Fail all nodes hosting speed tasks (round-robin may co-host others).
  std::set<int> nodes;
  for (TaskId t : w->topo.op(w->speed).tasks) {
    nodes.insert(job.cluster().NodeOfPrimary(t));
  }
  for (int node : nodes) {
    PPA_CHECK_OK(job.InjectNodeFailure(node));
  }
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));

  const auto timely =
      FilterTimely(job.sink_records(), cfg.batch_interval, 2);
  // Every tentative alarm is a real incident (a subset of the clean run's
  // alarms over the same window)...
  const auto tentative_alarms = SinkKeySet(timely, 13, 28);
  const auto clean_alarms = SinkKeySet(clean.sink_records(), 13, 28);
  for (const std::string& alarm : tentative_alarms) {
    EXPECT_EQ(clean_alarms.count(alarm), 1u) << alarm;
  }
  // ... and once the stale speed observations expire (3 batches after the
  // failure), no new alarms can fire: far fewer alarms than clean.
  EXPECT_LT(tentative_alarms.size(), clean_alarms.size());
  const auto late_window = SinkKeySet(timely, 16, 28);
  const auto clean_late = SinkKeySet(clean.sink_records(), 16, 28);
  EXPECT_LT(static_cast<double>(late_window.size()),
            0.5 * static_cast<double>(clean_late.size()) + 1.0);
}

// The strong recovery-correctness property holds on the real query
// pipelines too: a checkpoint-recovered Q1 run is indistinguishable from a
// failure-free one.
TEST(TopKWorkloadTest, CheckpointRecoveryReproducesTopKExactly) {
  WorldCupSource::Options opts;
  opts.tuples_per_batch_per_task = 200;
  opts.url_population = 300;
  auto w = MakeTopKWorkload(opts, 8, 20, TopKParallelism::Reduced());
  ASSERT_TRUE(w.ok());
  auto run = [&](int fail_node) {
    backend::SimBackend loop;
    StreamingJob job(w->topo, SmallConfig(FtMode::kCheckpoint, 12, 6),
                     JobRuntimeDeps(&loop));
    PPA_CHECK_OK(BindTopKWorkload(*w, &job));
    PPA_CHECK_OK(job.Start());
    if (fail_node >= 0) {
      loop.RunUntil(TimePoint::Zero() + Duration::Seconds(12.5));
      PPA_CHECK_OK(job.InjectNodeFailure(fail_node));
    }
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
    PPA_CHECK(fail_node < 0 || job.AllRecovered());
    return job.sink_records();
  };
  const auto clean = run(-1);
  ASSERT_FALSE(clean.empty());
  // Fail the node of count[0] (task index 4 under reduced parallelism 4+4).
  const auto failed = run(4 % 12);
  ASSERT_EQ(failed.size(), clean.size());
  for (size_t i = 0; i < failed.size(); ++i) {
    ASSERT_EQ(failed[i].tuple, clean[i].tuple) << "record " << i;
  }
}

// ... and on Q2, including its correlated-input join.
TEST(IncidentWorkloadTest, CheckpointRecoveryReproducesAlarmsExactly) {
  IncidentSchedule::Options opts;
  opts.num_segments = 40;
  opts.num_users = 1500;
  static IncidentSchedule schedule(opts);
  auto w = MakeIncidentWorkload(opts, 200, IncidentParallelism::Reduced());
  ASSERT_TRUE(w.ok());
  auto run = [&](bool fail) {
    backend::SimBackend loop;
    StreamingJob job(w->topo, SmallConfig(FtMode::kCheckpoint, 16, 8),
                     JobRuntimeDeps(&loop));
    PPA_CHECK_OK(BindIncidentWorkload(*w, &schedule, &job));
    PPA_CHECK_OK(job.Start());
    if (fail) {
      loop.RunUntil(TimePoint::Zero() + Duration::Seconds(11.5));
      // Fail the node hosting join[0].
      PPA_CHECK_OK(job.InjectNodeFailure(
          job.cluster().NodeOfPrimary(w->topo.op(w->join).tasks[0])));
    }
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
    PPA_CHECK(!fail || job.AllRecovered());
    return job.sink_records();
  };
  const auto clean = run(false);
  const auto failed = run(true);
  ASSERT_EQ(failed.size(), clean.size());
  for (size_t i = 0; i < failed.size(); ++i) {
    ASSERT_EQ(failed[i].tuple, clean[i].tuple) << "record " << i;
  }
}

TEST(AccuracyHelpersTest, PerBatchAndDistinct) {
  auto rec = [](const char* key, int64_t batch) {
    SinkRecord r;
    r.tuple.key = key;
    r.tuple.batch = batch;
    return r;
  };
  std::vector<SinkRecord> ref = {rec("a", 0), rec("b", 0), rec("a", 1),
                                 rec("c", 1)};
  std::vector<SinkRecord> test = {rec("a", 0), rec("x", 0), rec("a", 1),
                                  rec("c", 1)};
  // Batch 0: 1/2, batch 1: 2/2 -> mean 0.75.
  EXPECT_NEAR(PerBatchSetAccuracy(test, ref, 0, 1), 0.75, 1e-12);
  // Distinct over both batches: test hits {a, c} of ref {a, b, c}.
  EXPECT_NEAR(DistinctSetAccuracy(test, ref, 0, 1), 2.0 / 3.0, 1e-12);
  // Empty reference: accuracy defaults to 1.
  EXPECT_DOUBLE_EQ(PerBatchSetAccuracy(test, {}, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(DistinctSetAccuracy(test, {}, 0, 1), 1.0);
}

}  // namespace
}  // namespace ppa
