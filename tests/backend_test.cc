// Tests for src/backend/: the timer contract both backends keep (one
// suite, run on each), the SimBackend metrics, the ThreadedBackend
// per-strand serialization and worker bound, and the cross-backend parity
// oracle (DESIGN.md §16) — the sim run is the golden output the threaded
// backend must reproduce, including under fault injection.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "backend/execution_backend.h"
#include "backend/sim_backend.h"
#include "backend/threaded_backend.h"
#include "chaos/chaos_run.h"
#include "chaos/generator.h"
#include "chaos/invariants.h"
#include "common/random.h"
#include "engine/operators.h"
#include "exp/parity.h"
#include "exp/run_spec.h"
#include "obs/metrics.h"
#include "runtime/job_deps.h"
#include "runtime/streaming_job.h"
#include "tests/test_topologies.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace backend {

// Names the parameter of the BackendContract instances ("sim", "threads").
void PrintTo(BackendKind kind, std::ostream* os) {
  *os << BackendKindToString(kind);
}

}  // namespace backend

namespace {

// --- factory / flag spelling ---------------------------------------------

TEST(BackendFactory, MakesBothKinds) {
  auto sim = backend::MakeBackend(backend::BackendKind::kSim);
  EXPECT_EQ(sim->kind(), backend::BackendKind::kSim);
  auto threads = backend::MakeBackend(backend::BackendKind::kThreads);
  EXPECT_EQ(threads->kind(), backend::BackendKind::kThreads);
}

TEST(BackendFactory, KindSpellingRoundTrips) {
  for (backend::BackendKind kind :
       {backend::BackendKind::kSim, backend::BackendKind::kThreads}) {
    auto parsed = backend::ParseBackendKind(backend::BackendKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(backend::ParseBackendKind("simulator").ok());
  EXPECT_FALSE(backend::ParseBackendKind("").ok());
}

// --- the timer contract, on both backends --------------------------------

// Every case drives strand 0 from the test thread. On the threaded backend
// same-strand callbacks are serialized with happens-before edges through
// the backend mutex, and a drive returns only once they have finished, so
// the plain locals below need no locks.
class BackendContract : public ::testing::TestWithParam<backend::BackendKind> {
 protected:
  BackendContract() : be_(backend::MakeBackend(GetParam())) {}

  static TimePoint At(int64_t us) { return TimePoint::FromMicros(us); }

  std::unique_ptr<backend::ExecutionBackend> be_;
};

TEST_P(BackendContract, FiresInTimeOrder) {
  std::vector<std::string> order;
  auto record = [this, &order](std::string label, int64_t want_us) {
    return [this, &order, label, want_us] {
      EXPECT_EQ(be_->now().micros(), want_us) << label;
      order.push_back(label);
    };
  };
  (void)be_->ScheduleAfter(Duration::Seconds(5), record("t5", 5000000));
  (void)be_->ScheduleAfter(Duration::Seconds(1), record("t1a", 1000000));
  (void)be_->ScheduleAfter(Duration::Seconds(3), record("t3", 3000000));
  // Equal firing times run in schedule order (the sim's FIFO tie-break).
  (void)be_->ScheduleAfter(Duration::Seconds(1), record("t1b", 1000000));
  EXPECT_EQ(be_->pending(), 4u);

  be_->RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_EQ(order, (std::vector<std::string>{"t1a", "t1b", "t3", "t5"}));
  EXPECT_EQ(be_->events_processed(), 4);
  EXPECT_EQ(be_->pending(), 0u);
  // Outside callbacks now() is the drive horizon.
  EXPECT_EQ(be_->now().micros(), 10000000);
}

TEST_P(BackendContract, SameInstantIsFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    (void)be_->ScheduleAt(0, At(50), [&order, i] { order.push_back(i); });
  }
  be_->RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(BackendContract, NowAdvancesToEventTime) {
  TimePoint seen;
  (void)be_->ScheduleAt(0, At(12345), [this, &seen] { seen = be_->now(); });
  be_->RunUntilIdle();
  EXPECT_EQ(seen, At(12345));
  // RunUntilIdle leaves now() at the last event, not at a deadline.
  EXPECT_EQ(be_->now(), At(12345));
}

TEST_P(BackendContract, RunUntilStopsAtDeadline) {
  int fired = 0;
  (void)be_->ScheduleAt(0, At(100), [&fired] { ++fired; });
  (void)be_->ScheduleAt(0, At(900), [&fired] { ++fired; });
  be_->RunUntil(At(500));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(be_->now(), At(500));
  EXPECT_EQ(be_->pending(), 1u);
  be_->RunUntil(At(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(be_->now(), At(1000));
}

TEST_P(BackendContract, ScheduleAfterUsesCurrentTime) {
  TimePoint seen;
  (void)be_->ScheduleAt(0, At(100), [this, &seen] {
    (void)be_->ScheduleAfter(Duration::Micros(50),
                             [this, &seen] { seen = be_->now(); });
  });
  be_->RunUntilIdle();
  EXPECT_EQ(seen, At(150));
}

TEST_P(BackendContract, PastEventsClampToNow) {
  TimePoint absolute;
  TimePoint relative;
  (void)be_->ScheduleAt(0, At(200), [this, &absolute, &relative] {
    (void)be_->ScheduleAt(0, At(10),
                          [this, &absolute] { absolute = be_->now(); });
    (void)be_->ScheduleAfter(Duration::Micros(-30),
                             [this, &relative] { relative = be_->now(); });
  });
  be_->RunUntilIdle();
  EXPECT_EQ(absolute, At(200));
  EXPECT_EQ(relative, At(200));
}

TEST_P(BackendContract, CancelPreventsExecution) {
  int fired = 0;
  uint64_t keep = be_->ScheduleAt(0, At(100), [&fired] { ++fired; });
  uint64_t cancelled = be_->ScheduleAt(0, At(200), [&fired] { fired += 100; });
  EXPECT_TRUE(be_->Cancel(cancelled));
  EXPECT_FALSE(be_->Cancel(cancelled));  // double cancel
  EXPECT_FALSE(be_->Cancel(9999));       // never existed
  be_->RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(be_->Cancel(keep));  // already ran
}

TEST_P(BackendContract, CancelAfterRunIsRejected) {
  // Regression: cancelling an id whose event already fired used to return
  // true and make pending() underflow.
  int fired = 0;
  uint64_t ran = be_->ScheduleAt(0, At(100), [&fired] { ++fired; });
  uint64_t live = be_->ScheduleAt(0, At(900), [&fired] { ++fired; });
  EXPECT_EQ(be_->pending(), 2u);
  be_->RunUntil(At(500));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(be_->pending(), 1u);
  EXPECT_FALSE(be_->Cancel(ran));  // already executed: not cancellable
  EXPECT_EQ(be_->pending(), 1u);   // no underflow
  EXPECT_TRUE(be_->Cancel(live));
  EXPECT_EQ(be_->pending(), 0u);
  be_->RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST_P(BackendContract, PendingExactAcrossCancelAndRun) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(be_->ScheduleAt(0, At(100 * (i + 1)), [] {}));
  }
  EXPECT_EQ(be_->pending(), 6u);
  EXPECT_TRUE(be_->Cancel(ids[2]));
  EXPECT_TRUE(be_->Cancel(ids[4]));
  EXPECT_EQ(be_->pending(), 4u);
  // Fires ids[0] and ids[1]; ids[3] and ids[5] stay pending.
  be_->RunUntil(At(350));
  EXPECT_EQ(be_->pending(), 2u);
  EXPECT_FALSE(be_->Cancel(ids[0]));
  EXPECT_FALSE(be_->Cancel(ids[2]));  // cancelled before it was due
  EXPECT_EQ(be_->pending(), 2u);
  be_->RunUntilIdle();
  EXPECT_EQ(be_->pending(), 0u);
  EXPECT_EQ(be_->events_processed(), 4);
}

TEST_P(BackendContract, RecurringEventChain) {
  int count = 0;
  std::function<void()> tick = [this, &count, &tick] {
    ++count;
    if (count < 10) {
      (void)be_->ScheduleAfter(Duration::Millis(10), tick);
    }
  };
  (void)be_->ScheduleAfter(Duration::Zero(), tick);
  be_->RunUntilIdle();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(be_->events_processed(), 10);
  EXPECT_EQ(be_->now(), At(90 * 1000));
}

TEST_P(BackendContract, StopDropsPendingTimersWithoutRunningThem) {
  int fired = 0;
  (void)be_->ScheduleAt(0, At(100), [&fired] { ++fired; });
  (void)be_->ScheduleAt(0, At(200), [&fired] { ++fired; });
  be_->Stop();
  EXPECT_EQ(be_->pending(), 0u);
  be_->RunUntil(At(1000));
  be_->RunUntilIdle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(be_->events_processed(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendContract,
    ::testing::Values(backend::BackendKind::kSim,
                      backend::BackendKind::kThreads),
    [](const ::testing::TestParamInfo<backend::BackendKind>& info) {
      return backend::BackendKindToString(info.param);
    });

// --- SimBackend metrics ----------------------------------------------------

TEST(SimBackend, MetricsCountProcessedEventsAndDepth) {
  backend::SimBackend be;
  obs::MetricsRegistry registry;
  be.AttachMetrics(&registry);
  (void)be.ScheduleAfter(Duration::Micros(100), [] {});
  (void)be.ScheduleAfter(Duration::Micros(200), [] {});
  uint64_t id = be.ScheduleAfter(Duration::Micros(300), [] {});
  EXPECT_EQ(registry.gauge("sim.queue_depth")->value(), 3.0);
  EXPECT_TRUE(be.Cancel(id));
  EXPECT_EQ(registry.gauge("sim.queue_depth")->value(), 2.0);
  EXPECT_EQ(registry.counter("sim.events_cancelled")->value(), 1);
  be.RunUntilIdle();
  EXPECT_EQ(registry.counter("sim.events_processed")->value(), 2);
  EXPECT_EQ(registry.gauge("sim.queue_depth")->value(), 0.0);
  EXPECT_EQ(registry.histogram("sim.queue_occupancy")->count(), 2u);
}

// --- ThreadedBackend: strands and workers ----------------------------------

TEST(ThreadedBackend, StrandsRunIndependentlyAndInOrder) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 4;
  backend::ThreadedBackend be(options);
  constexpr int kStrands = 16;
  constexpr int kPerStrand = 32;
  // One vector per strand: same-strand callbacks are serialized, distinct
  // strands write distinct vectors, so no locking is needed.
  std::vector<std::vector<int>> per_strand(kStrands);
  std::vector<uint64_t> strands;
  strands.push_back(0);
  for (int s = 1; s < kStrands; ++s) {
    strands.push_back(be.NewStrand());
  }
  for (int i = 0; i < kPerStrand; ++i) {
    for (int s = 0; s < kStrands; ++s) {
      (void)be.ScheduleAfterOn(
          strands[static_cast<size_t>(s)], Duration::Seconds(i + 1),
          [&per_strand, s, i] {
            per_strand[static_cast<size_t>(s)].push_back(i);
          });
    }
  }
  be.RunUntilIdle();
  EXPECT_EQ(be.events_processed(), kStrands * kPerStrand);
  for (int s = 0; s < kStrands; ++s) {
    ASSERT_EQ(per_strand[static_cast<size_t>(s)].size(),
              static_cast<size_t>(kPerStrand));
    for (int i = 0; i < kPerStrand; ++i) {
      EXPECT_EQ(per_strand[static_cast<size_t>(s)][static_cast<size_t>(i)],
                i);
    }
  }
}

TEST(ThreadedBackend, EqualTimeTimersOfOneStrandNeverOverlap) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 4;
  backend::ThreadedBackend be(options);
  constexpr int kTimers = 256;
  // Every timer fires at the same instant on strand 0; four idle workers
  // must still run them one at a time, in schedule order.
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::vector<int> order;  // serialized by the strand, so no lock
  for (int i = 0; i < kTimers; ++i) {
    (void)be.ScheduleAfter(Duration::Seconds(1), [&inside, &overlaps,
                                                  &order, i] {
      if (inside.exchange(true)) {
        ++overlaps;
      }
      order.push_back(i);
      inside.store(false);
    });
  }
  be.RunUntilIdle();
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(order.size(), static_cast<size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadedBackend, NeverRunsMoreCallbacksThanWorkers) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 2;
  backend::ThreadedBackend be(options);
  constexpr int kStrands = 16;
  constexpr int kPerStrand = 8;
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  auto body = [&running, &high_water] {
    const int now_running = running.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now_running > seen &&
           !high_water.compare_exchange_weak(seen, now_running)) {
    }
    // Hold the worker briefly so sibling strands get a chance to overlap.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running.fetch_sub(1);
  };
  for (int s = 0; s < kStrands; ++s) {
    const uint64_t strand = s == 0 ? 0 : be.NewStrand();
    for (int i = 0; i < kPerStrand; ++i) {
      (void)be.ScheduleAfterOn(strand, Duration::Seconds(1), body);
    }
  }
  be.RunUntilIdle();
  EXPECT_EQ(be.events_processed(), kStrands * kPerStrand);
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), 2);
}

// The drill behind the stable-output parity test below: the fig07 shape — a
// windowed chain job, a mid-run node failure, then recovery and a quiet
// tail.
struct DrillResult {
  std::vector<SinkRecord> records;
  size_t recoveries = 0;
};

Topology MakeDrillTopology() {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid =
      b.AddOperator("mid", 2, InputCorrelation::kIndependent, 0.5);
  OperatorId sink =
      b.AddOperator("sink", 1, InputCorrelation::kIndependent, 0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 40.0);
  auto t = b.Build();
  PPA_CHECK(t.ok()) << t.status();
  return *std::move(t);
}

JobConfig MakeDrillConfig(FtMode mode) {
  JobConfig cfg;
  cfg.ft_mode = mode;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(5);
  cfg.replica_sync_interval = Duration::Seconds(2);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 5;
  cfg.window_batches = 5;
  cfg.stagger_checkpoints = false;
  return cfg;
}

/// Runs the fig07-shaped drill (checkpoint recovery, one node dies) on an
/// already-constructed backend.
DrillResult RunDrill(backend::ExecutionBackend* be) {
  Topology topo = MakeDrillTopology();
  StreamingJob job(topo, MakeDrillConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(be));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  PPA_CHECK_OK(job.InjectNodeFailure(1));
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  DrillResult result;
  result.records = job.sink_records();
  result.recoveries = job.recovery_reports().size();
  return result;
}

bool SameRecordExactly(const SinkRecord& a, const SinkRecord& b) {
  return a.tuple == b.tuple && a.tentative == b.tentative &&
         a.correction == b.correction && a.emitted_at == b.emitted_at &&
         a.ingest_at == b.ingest_at;
}

void ExpectIdenticalOutput(const DrillResult& a, const DrillResult& b) {
  EXPECT_EQ(a.recoveries, b.recoveries);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(SameRecordExactly(a.records[i], b.records[i]))
        << "record " << i << " differs";
  }
}

// --- ThreadedBackend vs sim: stable output parity --------------------------

TEST(ThreadedBackend, DrillStableOutputMatchesTheSimExactly) {
  // The same fig07 drill, sim vs threads, compared over the *entire*
  // record stream: a single-strand job is deterministic on the threaded
  // backend, so even tentative records must match the sim run.
  backend::SimBackend sim;
  DrillResult golden = RunDrill(&sim);

  backend::ThreadedBackend threads;
  DrillResult real = RunDrill(&threads);

  EXPECT_GT(golden.records.size(), 0u);
  ExpectIdenticalOutput(golden, real);
}

exp::RunSpec ParitySpec(const std::string& label) {
  exp::RunSpec spec;
  spec.label = label;
  spec.make_topology = [](Rng*) -> StatusOr<Topology> {
    return MakeDrillTopology();
  };
  spec.config = MakeDrillConfig(FtMode::kPpa);
  spec.planner = PlannerKind::kStructureAware;
  spec.budget = 2;
  spec.seed = 7;
  spec.run_for_seconds = 45.0;
  return spec;
}

TEST(BackendParity, CleanRunIsIdenticalOnThreads) {
  exp::RunSpec spec = ParitySpec("clean");
  auto report = exp::RunSpecParity(spec, backend::BackendKind::kThreads,
                                   DeriveSeed(spec.seed, 0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_GT(report->baseline_stable, 0u);
}

TEST(BackendParity, SingleFailureRecoveryIsIdenticalOnThreads) {
  exp::RunSpec spec = ParitySpec("fig07-style");
  ScenarioEvent fail;
  fail.at = Duration::Seconds(15);
  fail.kind = ScenarioEvent::Kind::kNodeFailure;
  fail.node = 1;
  spec.scenario.push_back(fail);
  auto report = exp::RunSpecParity(spec, backend::BackendKind::kThreads,
                                   DeriveSeed(spec.seed, 0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_GT(report->baseline_stable, 0u);
}

TEST(BackendParity, CorrelatedFailureWithReconcileIsIdenticalOnThreads) {
  // fig08/fig10 shape: two upstream nodes die at the same instant (a
  // correlated failure that leaves the sink alive), the degraded batches
  // open a tentative window, and a post-recovery reconcile closes it with
  // corrections.
  exp::RunSpec spec = ParitySpec("fig08-style");
  for (int node : {1, 2}) {
    ScenarioEvent fail;
    fail.at = Duration::Seconds(15);
    fail.kind = ScenarioEvent::Kind::kNodeFailure;
    fail.node = node;
    spec.scenario.push_back(fail);
  }
  ScenarioEvent reconcile;
  reconcile.at = Duration::Seconds(35);
  reconcile.kind = ScenarioEvent::Kind::kReconcile;
  spec.scenario.push_back(reconcile);
  auto report = exp::RunSpecParity(spec, backend::BackendKind::kThreads,
                                   DeriveSeed(spec.seed, 0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->identical) << report->mismatch;
  EXPECT_GT(report->baseline_total, report->baseline_stable)
      << "the drill should have produced tentative records";
}

// --- chaos smoke: the threaded backend under random fault schedules --------

TEST(BackendParity, ThirtyTwoCaseChaosSmokeOnThreads) {
  // Each case executes its random fault schedule (failures during
  // recovery, revives, plan swaps, reconciles) on the threaded backend
  // while the golden twin and the invariant oracles stay on the sim —
  // exactly-once-stable compares the stable sink stream against the
  // fault-free sim run, so this is the parity contract under chaos.
  const std::vector<const chaos::Invariant*> invariants =
      chaos::BuiltinInvariants();
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    auto chaos_case =
        chaos::GenerateChaosCase(chaos::ChaosIntensity::Medium(), seed);
    ASSERT_TRUE(chaos_case.ok()) << chaos_case.status().ToString();
    auto report = chaos::RunChaosCase(*chaos_case, invariants,
                                      backend::BackendKind::kThreads);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << ": " << report.status().ToString();
    for (const chaos::ChaosViolation& v : report->violations) {
      ADD_FAILURE() << "seed " << seed << ": [" << v.invariant << "] "
                    << v.message;
    }
  }
}

}  // namespace
}  // namespace ppa
