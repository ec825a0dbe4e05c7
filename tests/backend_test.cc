// Tests for src/backend/: the timer contract both backends keep (one
// suite, run on each), the SimBackend metrics, the ThreadedBackend's
// driving thread and fork helpers, and the cross-backend parity oracle
// (DESIGN.md §16) — the sim run is the golden output the threaded
// backend must reproduce, including under fault injection.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/execution_backend.h"
#include "backend/sim_backend.h"
#include "backend/threaded_backend.h"
#include "chaos/chaos_run.h"
#include "chaos/generator.h"
#include "chaos/invariants.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "engine/serde.h"
#include "engine/task_runtime.h"
#include "engine/operators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "planner/structure_aware_planner.h"
#include "report/json.h"
#include "runtime/job_deps.h"
#include "runtime/scenario.h"
#include "runtime/streaming_job.h"
#include "tests/test_topologies.h"
#include "topology/serialize.h"
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

// Every case drives the backend from the test thread, which runs every
// callback on both backends, so the plain locals below need no locks.
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
    (void)be_->ScheduleAt(At(50), [&order, i] { order.push_back(i); });
  }
  be_->RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(BackendContract, NowAdvancesToEventTime) {
  TimePoint seen;
  (void)be_->ScheduleAt(At(12345), [this, &seen] { seen = be_->now(); });
  be_->RunUntilIdle();
  EXPECT_EQ(seen, At(12345));
  // RunUntilIdle leaves now() at the last event, not at a deadline.
  EXPECT_EQ(be_->now(), At(12345));
}

TEST_P(BackendContract, RunUntilStopsAtDeadline) {
  int fired = 0;
  (void)be_->ScheduleAt(At(100), [&fired] { ++fired; });
  (void)be_->ScheduleAt(At(900), [&fired] { ++fired; });
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
  (void)be_->ScheduleAt(At(100), [this, &seen] {
    (void)be_->ScheduleAfter(Duration::Micros(50),
                             [this, &seen] { seen = be_->now(); });
  });
  be_->RunUntilIdle();
  EXPECT_EQ(seen, At(150));
}

TEST_P(BackendContract, PastEventsClampToNow) {
  TimePoint absolute;
  TimePoint relative;
  (void)be_->ScheduleAt(At(200), [this, &absolute, &relative] {
    (void)be_->ScheduleAt(At(10),
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
  uint64_t keep = be_->ScheduleAt(At(100), [&fired] { ++fired; });
  uint64_t cancelled = be_->ScheduleAt(At(200), [&fired] { fired += 100; });
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
  uint64_t ran = be_->ScheduleAt(At(100), [&fired] { ++fired; });
  uint64_t live = be_->ScheduleAt(At(900), [&fired] { ++fired; });
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
    ids.push_back(be_->ScheduleAt(At(100 * (i + 1)), [] {}));
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
  (void)be_->ScheduleAt(At(100), [&fired] { ++fired; });
  (void)be_->ScheduleAt(At(200), [&fired] { ++fired; });
  be_->Stop();
  EXPECT_EQ(be_->pending(), 0u);
  be_->RunUntil(At(1000));
  be_->RunUntilIdle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(be_->events_processed(), 0);
}

// --- ParallelFor: the level fork-join, on both backends --------------------

TEST_P(BackendContract, ParallelForRunsEveryIndexOnceBeforeReturning) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  std::atomic<int> wrong_now{0};
  bool all_ran_on_return = false;
  (void)be_->ScheduleAt(At(777), [&] {
    ParallelFor(kN, [&](size_t i) {
      // A little work per index, so helpers are still inside their blocks
      // when the caller runs out of blocks to claim.
      volatile uint64_t sink = 0;
      for (int k = 0; k < 200; ++k) {
        sink = sink + static_cast<uint64_t>(k) * i;
      }
      runs[i].fetch_add(1);
      if (be_->now() != At(777)) {
        wrong_now.fetch_add(1);
      }
    });
    all_ran_on_return = std::all_of(
        runs.begin(), runs.end(),
        [](const std::atomic<int>& r) { return r.load() == 1; });
  });
  be_->RunUntilIdle();
  EXPECT_TRUE(all_ran_on_return);
  EXPECT_EQ(wrong_now.load(), 0);
  EXPECT_EQ(be_->events_processed(), 1);
}

TEST_P(BackendContract, NestedParallelForRunsInline) {
  std::atomic<int> off_thread{0};
  std::atomic<int> out_of_order{0};
  std::atomic<int> inner_runs{0};
  (void)be_->ScheduleAt(At(5), [&] {
    ParallelFor(64, [&](size_t) {
      const std::thread::id self = std::this_thread::get_id();
      size_t next = 0;
      ParallelFor(8, [&](size_t j) {
        if (std::this_thread::get_id() != self) {
          off_thread.fetch_add(1);
        }
        if (j != next++) {
          out_of_order.fetch_add(1);
        }
        inner_runs.fetch_add(1);
      });
    });
  });
  be_->RunUntilIdle();
  EXPECT_EQ(inner_runs.load(), 64 * 8);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
}

TEST_P(BackendContract, ParallelForOutsideCallbacksIsAPlainLoop) {
  // The driver thread runs no callback, so there is no pool to fork onto.
  const std::thread::id self = std::this_thread::get_id();
  std::vector<size_t> order;
  bool on_caller = true;
  ParallelFor(100, [&](size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == self;
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_TRUE(on_caller);
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

// --- ThreadedBackend: the driving thread and the fork helpers -------------

TEST(ThreadedBackend, EqualTimeTimersNeverOverlap) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 4;
  backend::ThreadedBackend be(options);
  constexpr int kTimers = 256;
  // Every timer fires at the same instant; with three helper threads
  // they must still run one at a time, in schedule order.
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::vector<int> order;  // callbacks never overlap, so no lock
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

TEST(ThreadedBackend, CallbacksRunOnTheDrivingThread) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 4;
  backend::ThreadedBackend be(options);
  constexpr int kTimers = 256;
  std::atomic<int> elsewhere{0};
  std::atomic<int> ran{0};
  const std::thread::id driver = std::this_thread::get_id();
  for (int i = 0; i < kTimers; ++i) {
    (void)be.ScheduleAfter(Duration::Millis(i % 8), [&elsewhere, &ran,
                                                     driver] {
      if (std::this_thread::get_id() != driver) {
        elsewhere.fetch_add(1);
      }
      ran.fetch_add(1);
    });
  }
  be.RunUntilIdle();
  EXPECT_EQ(ran.load(), kTimers);
  EXPECT_EQ(elsewhere.load(), 0);
}

/// Runs ParallelFor(n) from a callback on `be` and returns, per index, the
/// thread that ran it, plus the callback's own thread.
std::pair<std::vector<std::thread::id>, std::thread::id> ForkThreads(
    backend::ExecutionBackend* be, size_t n) {
  std::vector<std::thread::id> ran(n);
  std::thread::id caller;
  (void)be->ScheduleAfter(Duration::Seconds(1), [&] {
    caller = std::this_thread::get_id();
    ParallelFor(n, [&](size_t i) {
      ran[i] = std::this_thread::get_id();
    });
  });
  be->RunUntilIdle();
  return {ran, caller};
}

TEST(SimBackend, ParallelForRunsOnTheCaller) {
  backend::SimBackend be;
  auto [ran, caller] = ForkThreads(&be, 64);
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadedBackend, ParallelForWithOneWorkerRunsOnTheCaller) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 1;
  backend::ThreadedBackend be(options);
  auto [ran, caller] = ForkThreads(&be, 64);
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadedBackend, ParallelForRunsBlocksOnTwoWorkers) {
  // Each of the two indices is its own block, and neither returns until
  // both have started: the fork can only finish if the caller and the
  // one helper thread each run one. No timing is involved.
  backend::ThreadedBackendOptions options;
  options.num_shards = 2;
  backend::ThreadedBackend be(options);
  std::latch both_started(2);
  std::vector<std::thread::id> ran(2);
  std::thread::id caller;
  (void)be.ScheduleAfter(Duration::Seconds(1), [&] {
    caller = std::this_thread::get_id();
    ParallelFor(2, [&](size_t i) {
      ran[i] = std::this_thread::get_id();
      both_started.arrive_and_wait();
    });
  });
  be.RunUntilIdle();
  EXPECT_NE(ran[0], ran[1]);
  EXPECT_TRUE(ran[0] == caller || ran[1] == caller);
}

// The queue has no lock, so a schedule, cancel or drive from a ParallelFor
// block would race with the driving thread. Debug builds make each one a
// fatal check that names the call, on the helpers and on the caller alike.
TEST(ThreadedBackendDeathTest, QueueAndDriveCallsInAParallelForBlockAreFatal) {
#ifdef NDEBUG
  GTEST_SKIP() << "the check is compiled into debug builds only";
#else
  using Call = std::function<void(backend::ExecutionBackend*)>;
  const std::vector<std::pair<std::string, Call>> calls = {
      {"ScheduleAfterOn",
       [](backend::ExecutionBackend* be) {
         (void)be->ScheduleAfter(Duration::Zero(), [] {});
       }},
      {"Cancel", [](backend::ExecutionBackend* be) { (void)be->Cancel(1); }},
      {"RunUntil",
       [](backend::ExecutionBackend* be) { be->RunUntil(be->now()); }},
      {"RunUntilIdle",
       [](backend::ExecutionBackend* be) { be->RunUntilIdle(); }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    EXPECT_DEATH(
        {
          backend::ThreadedBackendOptions options;
          options.num_shards = 2;
          backend::ThreadedBackend be(options);
          (void)be.ScheduleAfter(Duration::Zero(), [&be, &call] {
            ParallelFor(2, [&be, &call](size_t) { call(&be); });
          });
          be.RunUntilIdle();
        },
        name + " called inside a ParallelFor block");
  }
#endif
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
  // record stream: the threaded backend runs the sim's loop, so even
  // tentative records must match the sim run.
  backend::SimBackend sim;
  DrillResult golden = RunDrill(&sim);

  backend::ThreadedBackend threads;
  DrillResult real = RunDrill(&threads);

  EXPECT_GT(golden.records.size(), 0u);
  ExpectIdenticalOutput(golden, real);
}

// --- level fork-join: byte-identical job output on threads ---------------

/// What a job leaves behind, serialized for byte comparison.
struct JobOutput {
  std::vector<SinkRecord> records;
  std::string metrics;
  std::string trace;
};

/// The job's metrics without the entries the backend itself books
/// ("sim.*" or "backend.*"), which name the backend.
std::string JobMetricsJson(const obs::MetricsRegistry& registry) {
  const JsonValue all = obs::MetricsToJson(registry);
  JsonValue job = JsonValue::Object();
  for (const auto& [section, entries] : all.members()) {
    JsonValue kept = JsonValue::Object();
    for (const auto& [name, value] : entries.members()) {
      if (name.rfind("sim.", 0) != 0 && name.rfind("backend.", 0) != 0) {
        kept.Set(name, value);
      }
    }
    job.Set(section, std::move(kept));
  }
  return job.Serialize();
}

JobOutput OutputOf(const StreamingJob& job) {
  return JobOutput{job.sink_records(), JobMetricsJson(job.metrics()),
                   obs::TraceToJson(job.trace()).Serialize()};
}

void ExpectSameOutput(const JobOutput& golden, const JobOutput& got) {
  ASSERT_EQ(golden.records.size(), got.records.size());
  for (size_t i = 0; i < golden.records.size(); ++i) {
    EXPECT_TRUE(SameRecordExactly(golden.records[i], got.records[i]))
        << "record " << i << " differs";
  }
  EXPECT_EQ(golden.metrics, got.metrics);
  EXPECT_EQ(golden.trace, got.trace);
}

// --- the sim-vs-threads parity oracle (DESIGN.md §16) ---------------------

/// The parity drill: the fig07 shape under PPA with the structure-aware
/// plan at budget 2 and the generic workload, `scenario` played, 45 s run.
JobOutput RunParityDrill(backend::ExecutionBackend* be,
                         const std::vector<ScenarioEvent>& scenario) {
  const Topology topo = MakeDrillTopology();
  const JobConfig config = MakeDrillConfig(FtMode::kPpa);
  StreamingJob job(topo, config, JobRuntimeDeps(be));
  PPA_CHECK_OK(BindGenericWorkload(topo, config, &job));
  auto plan = CreatePlanner(PlannerKind::kStructureAware)
                  ->Plan(PlanRequest(topo, /*budget=*/2));
  PPA_CHECK_OK(plan.status());
  PPA_CHECK_OK(job.SetActiveReplicaSet(plan->replicated));
  PPA_CHECK_OK(job.Start());
  ScenarioRunner runner(&job);
  PPA_CHECK_OK(runner.Run(scenario));
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(45));
  PPA_CHECK_OK(runner.FirstError());
  return OutputOf(job);
}

/// The drill on the sim, then on threads: the whole record stream, the
/// job metrics and the trace must match. Returns the sim's output.
JobOutput ExpectParityOnThreads(const std::vector<ScenarioEvent>& scenario) {
  backend::SimBackend sim;
  JobOutput golden = RunParityDrill(&sim, scenario);
  backend::ThreadedBackend threads;
  ExpectSameOutput(golden, RunParityDrill(&threads, scenario));
  return golden;
}

ScenarioEvent At(double seconds, ScenarioEvent::Kind kind, int node = -1) {
  ScenarioEvent event;
  event.at = Duration::Seconds(seconds);
  event.kind = kind;
  event.node = node;
  return event;
}

TEST(BackendParity, CleanRunIsIdenticalOnThreads) {
  EXPECT_GT(ExpectParityOnThreads({}).records.size(), 0u);
}

TEST(BackendParity, SingleFailureRecoveryIsIdenticalOnThreads) {
  // fig07 shape: node 1 dies mid-run and recovers.
  const JobOutput golden = ExpectParityOnThreads(
      {At(15, ScenarioEvent::Kind::kNodeFailure, 1)});
  EXPECT_GT(golden.records.size(), 0u);
}

TEST(BackendParity, CorrelatedFailureWithReconcileIsIdenticalOnThreads) {
  // fig08/fig10 shape: two upstream nodes die at the same instant (a
  // correlated failure that leaves the sink alive), the degraded batches
  // open a tentative window, and a post-recovery reconcile closes it with
  // corrections.
  const JobOutput golden = ExpectParityOnThreads(
      {At(15, ScenarioEvent::Kind::kNodeFailure, 1),
       At(15, ScenarioEvent::Kind::kNodeFailure, 2),
       At(35, ScenarioEvent::Kind::kReconcile)});
  EXPECT_TRUE(std::any_of(
      golden.records.begin(), golden.records.end(),
      [](const SinkRecord& r) { return r.tentative || r.correction; }))
      << "the drill should have produced tentative records or corrections";
}

/// The fig6 shape (16 sources into 8/4/2/1 window tasks) with the PPA
/// half-budget plan: the sources and every non-sink window task fail at
/// 20 s, recover, and at 45 s the plan moves to the first window
/// operator. The failure and the plan change are backend callbacks, so
/// the recovery and catch-up levels fork as the batch ticks do.
JobOutput RunForkedFig6(backend::ExecutionBackend* be) {
  auto workload = MakeSyntheticRecoveryWorkload(/*rate_per_source_task=*/400,
                                                /*window_batches=*/5);
  PPA_CHECK_OK(workload.status());
  JobConfig config = JobConfig::PpaDefaults();
  config.window_batches = 5;
  config.num_worker_nodes = 19;
  config.num_standby_nodes = 16;
  StreamingJob job(workload->topo, config, JobRuntimeDeps(be));
  PPA_CHECK_OK(BindSyntheticRecoveryWorkload(*workload, &job));
  auto synthetic_nodes = PlaceSyntheticRecoveryWorkload(*workload, &job);
  PPA_CHECK_OK(synthetic_nodes.status());
  StructureAwarePlanner planner;
  auto plan = planner.Plan(
      PlanRequest(workload->topo, workload->topo.num_tasks() / 2));
  PPA_CHECK_OK(plan.status());
  PPA_CHECK_OK(job.SetActiveReplicaSet(plan->replicated));
  PPA_CHECK_OK(job.Start());
  (void)be->ScheduleAt(TimePoint::Zero() + Duration::Seconds(20),
                       [&job, nodes = *synthetic_nodes] {
                         // Every window node but the sink's (the last).
                         for (size_t i = 0; i + 1 < nodes.size(); ++i) {
                           PPA_CHECK_OK(job.InjectNodeFailure(nodes[i]));
                         }
                         for (int node = 0; node < 4; ++node) {
                           PPA_CHECK_OK(job.InjectNodeFailure(node));
                         }
                       });
  TaskSet moved(workload->topo.num_tasks());
  for (TaskId t : workload->topo.op(workload->o1).tasks) {
    moved.Add(t);
  }
  (void)be->ScheduleAt(TimePoint::Zero() + Duration::Seconds(45),
                       [&job, moved] {
                         PPA_CHECK_OK(job.ApplyActiveReplicaSet(moved));
                       });
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(70));
  EXPECT_EQ(job.recovery_reports().size(), 1u);
  return OutputOf(job);
}

/// Four sources into four windows, fully connected to a sink operator of
/// parallelism 2,
/// every task replicated; node 2 (a source and its window) fails at 12 s.
JobOutput RunForkedWideSink(backend::ExecutionBackend* be) {
  auto topo = ParseTopologySpec(
      "operator src 4 rate=40\n"
      "operator mid 4 selectivity=0.5\n"
      "operator sink 2 selectivity=0.5\n"
      "edge src mid one-to-one\n"
      "edge mid sink full\n");
  PPA_CHECK_OK(topo.status());
  JobConfig config = JobConfig::PpaDefaults();
  StreamingJob job(*topo, config, JobRuntimeDeps(be));
  PPA_CHECK_OK(BindGenericWorkload(*topo, config, &job));
  TaskSet all(topo->num_tasks());
  for (TaskId t = 0; t < topo->num_tasks(); ++t) {
    all.Add(t);
  }
  PPA_CHECK_OK(job.SetActiveReplicaSet(all));
  PPA_CHECK_OK(job.Start());
  (void)be->ScheduleAt(TimePoint::Zero() + Duration::Seconds(12),
                       [&job] { PPA_CHECK_OK(job.InjectNodeFailure(2)); });
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(40));
  EXPECT_EQ(job.recovery_reports().size(), 1u);
  return OutputOf(job);
}

TEST(LevelForkParity, Fig6CorrelatedFailureAndPlanChangeMatchTheSim) {
  backend::SimBackend sim;
  const JobOutput golden = RunForkedFig6(&sim);
  EXPECT_GT(golden.records.size(), 0u);
  EXPECT_NE(golden.trace.find("tentative"), std::string::npos);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    backend::ThreadedBackendOptions options;
    options.num_shards = workers;
    backend::ThreadedBackend threads(options);
    ExpectSameOutput(golden, RunForkedFig6(&threads));
  }
}

TEST(LevelForkParity, ParallelSinkOperatorMatchesTheSim) {
  backend::SimBackend sim;
  const JobOutput golden = RunForkedWideSink(&sim);
  EXPECT_GT(golden.records.size(), 0u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    backend::ThreadedBackendOptions options;
    options.num_shards = workers;
    backend::ThreadedBackend threads(options);
    ExpectSameOutput(golden, RunForkedWideSink(&threads));
  }
}

// --- checkpoint encode fork: byte-identical blobs on threads --------------

/// The Fig. 6 O1 task's shape: two producers send 2000 tuples each per
/// batch into a 10-batch window with selectivity 0.5, so its window
/// (~1.8 MB) and its buffered output (~0.9 MB) each encode in several
/// parts.
constexpr int64_t kO1Window = 10;

Topology MakeO1Topology() {
  TopologyBuilder b;
  const OperatorId src = b.AddOperator("src", 2);
  const OperatorId o1 = b.AddOperator("o1", 1);
  b.Connect(src, o1, PartitionScheme::kMerge);
  auto t = b.Build();
  PPA_CHECK(t.ok()) << t.status();
  return *std::move(t);
}

/// Input batch `b` of the O1 task: each producer's seeded source batch,
/// stamped with the producer's batch and sequence numbers.
std::vector<Tuple> O1Input(const Topology& topo, int64_t b) {
  SyntheticSource source(2000, 1024, 42);
  std::vector<Tuple> inputs;
  for (int p = 0; p < 2; ++p) {
    std::vector<Tuple> part = source.NextBatch(b, p);
    for (size_t i = 0; i < part.size(); ++i) {
      part[i].batch = b;
      part[i].seq = (static_cast<uint64_t>(b) << 24) + i;
      part[i].producer = topo.op(0).tasks[static_cast<size_t>(p)];
    }
    inputs.insert(inputs.end(), part.begin(), part.end());
  }
  return inputs;
}

std::unique_ptr<TaskRuntime> MakeO1Task(const Topology& topo) {
  return std::make_unique<TaskRuntime>(
      &topo, topo.op(1).tasks[0],
      std::make_unique<SlidingWindowAggregateOperator>(kO1Window, 0.5),
      nullptr);
}

/// Wraps the fork runner a drive installed. In every fork, index 0 and
/// index 1 each wait until both have started. The threaded backend claims
/// a fork of at most 16 indices one index at a time, so the thread that
/// claimed index 0 cannot claim index 1 while it waits: the fork returns
/// only if a second thread, a helper, ran a part.
class HelperLatch : public ForkRunner {
 public:
  explicit HelperLatch(ForkRunner* inner) : inner_(inner) {}

  void RunFork(size_t n, const std::function<void(size_t)>& fn) override {
    std::latch both_started(2);
    std::thread::id ran[2];
    inner_->RunFork(n, [&](size_t i) {
      if (i < 2) {
        ran[i] = std::this_thread::get_id();
        both_started.arrive_and_wait();
      }
      fn(i);
    });
    EXPECT_LE(n, kMaxEncodeParts);
    EXPECT_NE(ran[0], ran[1]);
    ++forks;
  }

  int forks = 0;

 private:
  ForkRunner* const inner_;
};

/// What the O1 task and a window fed the same inputs encode.
struct O1Checkpoints {
  std::string snapshot;
  std::string delta;
  std::string window;
};

/// Loads the O1 task and a bare window with batches [0, 10), then, inside
/// one callback on `be`, takes the task's Snapshot(), runs two more
/// batches, takes its SnapshotDelta() and the window's SnapshotState().
/// With `latch`, every fork in the callback must put a part on a helper;
/// returns the number of forks in `*forks`.
O1Checkpoints TakeO1Checkpoints(backend::ExecutionBackend* be, bool latch,
                                int* forks) {
  const Topology topo = MakeO1Topology();
  auto task = MakeO1Task(topo);
  SlidingWindowAggregateOperator window(kO1Window, 0.5);
  for (int64_t b = 0; b < kO1Window; ++b) {
    task->RunBatch(b, O1Input(topo, b));
    BatchContext ctx(b, 0, 1);
    window.ProcessBatch(&ctx, O1Input(topo, b));
  }
  O1Checkpoints out;
  (void)be->ScheduleAfter(Duration::Seconds(1), [&] {
    ForkRunner* const drive = SetForkRunner(nullptr);
    HelperLatch helper_latch(drive);
    SetForkRunner(latch ? &helper_latch : drive);
    out.snapshot = *task->Snapshot();
    for (int64_t b = kO1Window; b < kO1Window + 2; ++b) {
      task->RunBatch(b, O1Input(topo, b));
    }
    out.delta = task->SnapshotDelta()->blob;
    out.window = *window.SnapshotState();
    SetForkRunner(drive);
    *forks = helper_latch.forks;
  });
  be->RunUntilIdle();
  return out;
}

TEST(CheckpointForkParity, O1TaskBlobsMatchTheSimAndRestore) {
  backend::SimBackend sim;
  int sim_forks = 0;
  const O1Checkpoints golden = TakeO1Checkpoints(&sim, false, &sim_forks);
  // Every blob spans more than one part.
  EXPECT_GT(golden.snapshot.size(), 2 * kMinEncodePartBytes);
  EXPECT_GT(golden.delta.size(), 2 * kMinEncodePartBytes);
  EXPECT_GT(golden.window.size(), 2 * kMinEncodePartBytes);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    backend::ThreadedBackendOptions options;
    options.num_shards = workers;
    backend::ThreadedBackend threads(options);
    int forks = 0;
    const O1Checkpoints got = TakeO1Checkpoints(&threads, true, &forks);
    // The window's and the task's encode in Snapshot() and in
    // SnapshotDelta(), then the bare window's.
    EXPECT_EQ(forks, 5);
    EXPECT_TRUE(got.snapshot == golden.snapshot);
    EXPECT_TRUE(got.delta == golden.delta);
    EXPECT_TRUE(got.window == golden.window);
  }

  // The blobs restore: the snapshot and the window re-encode to
  // themselves, and the chain re-encodes to the live task's state.
  const Topology topo = MakeO1Topology();
  auto restored = MakeO1Task(topo);
  ASSERT_TRUE(restored->Restore(golden.snapshot).ok());
  EXPECT_TRUE(*restored->Snapshot() == golden.snapshot);
  ASSERT_TRUE(restored->ApplyDelta(golden.delta).ok());
  auto live = MakeO1Task(topo);
  for (int64_t b = 0; b < kO1Window + 2; ++b) {
    live->RunBatch(b, O1Input(topo, b));
  }
  EXPECT_EQ(restored->next_batch(), live->next_batch());
  EXPECT_TRUE(*restored->Snapshot() == *live->Snapshot());
  SlidingWindowAggregateOperator window(kO1Window, 0.5);
  ASSERT_TRUE(window.RestoreState(golden.window).ok());
  EXPECT_TRUE(*window.SnapshotState() == golden.window);
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
