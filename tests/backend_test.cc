// Tests for src/backend/: the ThreadedBackend dispatch order and its
// per-strand serialization and worker bound, the SimBackend "adapter adds
// nothing" identity, and the cross-backend parity oracle (DESIGN.md §16) —
// the sim run is the golden output the threaded backend must reproduce,
// including under fault injection.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
#include "runtime/job_deps.h"
#include "runtime/streaming_job.h"
#include "sim/event_loop.h"
#include "tests/test_topologies.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
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

// --- ThreadedBackend scheduling drills ------------------------------------

TEST(ThreadedBackend, RunsTimersInSimOrderOnOneStrand) {
  backend::ThreadedBackend be;
  // Same-strand callbacks are serialized with happens-before edges through
  // the backend mutex, so this plain vector needs no lock.
  std::vector<std::string> order;
  auto record = [&be, &order](std::string label, int64_t want_us) {
    return [&be, &order, label, want_us] {
      EXPECT_EQ(be.now().micros(), want_us) << label;
      order.push_back(label);
    };
  };
  (void)be.ScheduleAfter(Duration::Seconds(5), record("t5", 5000000));
  (void)be.ScheduleAfter(Duration::Seconds(1), record("t1a", 1000000));
  (void)be.ScheduleAfter(Duration::Seconds(3), record("t3", 3000000));
  // Equal firing times run in schedule order (the sim's FIFO tie-break).
  (void)be.ScheduleAfter(Duration::Seconds(1), record("t1b", 1000000));
  EXPECT_EQ(be.pending(), 4u);

  be.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_EQ(order,
            (std::vector<std::string>{"t1a", "t1b", "t3", "t5"}));
  EXPECT_EQ(be.events_processed(), 4);
  EXPECT_EQ(be.pending(), 0u);
  // Outside callbacks now() is the drive horizon, exactly like the sim.
  EXPECT_EQ(be.now().micros(), 10000000);
}

TEST(ThreadedBackend, CallbacksChainAndRunUntilIdleDrains) {
  backend::ThreadedBackend be;
  std::vector<int> order;
  (void)be.ScheduleAfter(Duration::Seconds(1), [&be, &order] {
    order.push_back(1);
    (void)be.ScheduleAfter(Duration::Seconds(1), [&be, &order] {
      order.push_back(2);
      (void)be.ScheduleAfter(Duration::Seconds(1),
                             [&order] { order.push_back(3); });
    });
  });
  be.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(be.now().micros(), 3000000);
  EXPECT_EQ(be.events_processed(), 3);
}

TEST(ThreadedBackend, NothingRunsPastTheDriveDeadline) {
  backend::ThreadedBackend be;
  std::atomic<bool> ran{false};
  (void)be.ScheduleAfter(Duration::Seconds(10), [&ran] { ran.store(true); });
  be.RunUntil(TimePoint::Zero() + Duration::Seconds(5));
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(be.now().micros(), 5000000);
  EXPECT_EQ(be.pending(), 1u);
  be.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_TRUE(ran.load());
}

TEST(ThreadedBackend, CancelPreventsExecution) {
  backend::ThreadedBackend be;
  std::atomic<int> fired{0};
  uint64_t keep =
      be.ScheduleAfter(Duration::Seconds(1), [&fired] { ++fired; });
  uint64_t cancelled =
      be.ScheduleAfter(Duration::Seconds(2), [&fired] { fired += 100; });
  EXPECT_TRUE(be.Cancel(cancelled));
  EXPECT_FALSE(be.Cancel(cancelled));  // already gone
  be.RunUntilIdle();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(be.Cancel(keep));  // already ran
}

TEST(ThreadedBackend, StopDropsPendingTimersWithoutRunningThem) {
  backend::ThreadedBackend be;
  std::atomic<bool> ran{false};
  (void)be.ScheduleAfter(Duration::Seconds(1), [&ran] { ran.store(true); });
  be.Stop();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(be.events_processed(), 0);
}

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

// --- SimBackend adapter identity -------------------------------------------

TEST(SimBackend, ForwardsToTheWrappedLoop) {
  EventLoop loop;
  backend::SimBackend be(&loop);
  std::vector<int> order;
  // Interleave scheduling through the adapter and the raw loop: both feed
  // the same queue and fire in one (time, insertion) order.
  (void)be.ScheduleAfter(Duration::Seconds(2), [&order] { order.push_back(2); });
  (void)loop.ScheduleAfter(Duration::Seconds(1),
                           [&order] { order.push_back(1); });
  (void)be.ScheduleAfter(Duration::Seconds(3), [&order] { order.push_back(3); });
  // Driving the raw loop runs callbacks scheduled through the adapter.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // And vice versa.
  be.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(be.now(), loop.now());
  EXPECT_EQ(be.events_processed(), loop.events_processed());
}

// Shared drill used by the byte-identity and parity tests below: the
// fig07/fig08 shape — a windowed chain job, a mid-run failure (one node or
// every worker node), then recovery and a quiet tail.
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

/// Runs the drill on an already-constructed backend, driving it through
/// `drive` so the caller chooses adapter-driving vs raw-loop-driving.
template <typename DriveFn>
DrillResult RunDrill(backend::ExecutionBackend* be, FtMode mode,
                     bool correlated, DriveFn drive) {
  Topology topo = MakeDrillTopology();
  StreamingJob job(topo, MakeDrillConfig(mode), JobRuntimeDeps(be));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  drive(TimePoint::Zero() + Duration::Seconds(20));
  if (correlated) {
    // fig08 shape: every worker node that hosts work dies at once.
    for (int node = 0; node < 5; ++node) {
      PPA_CHECK_OK(job.InjectNodeFailure(node));
    }
  } else {
    // fig07 shape: one node dies.
    PPA_CHECK_OK(job.InjectNodeFailure(1));
  }
  drive(TimePoint::Zero() + Duration::Seconds(60));
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

TEST(SimBackend, Fig07DrillIsByteIdenticalToDrivingTheEventLoopDirectly) {
  // Side A: the job sits on a SimBackend, but the test drives the wrapped
  // EventLoop directly — the pre-refactor execution path.
  EventLoop loop;
  backend::SimBackend wrapped(&loop);
  DrillResult direct =
      RunDrill(&wrapped, FtMode::kCheckpoint, /*correlated=*/false,
               [&loop](TimePoint t) { loop.RunUntil(t); });

  // Side B: everything goes through the backend interface.
  backend::SimBackend be;
  DrillResult adapted =
      RunDrill(&be, FtMode::kCheckpoint, /*correlated=*/false,
               [&be](TimePoint t) { be.RunUntil(t); });

  EXPECT_GT(adapted.records.size(), 0u);
  EXPECT_GT(adapted.recoveries, 0u);
  ExpectIdenticalOutput(direct, adapted);
}

TEST(SimBackend, Fig08CorrelatedDrillIsByteIdenticalToEventLoopDirect) {
  EventLoop loop;
  backend::SimBackend wrapped(&loop);
  DrillResult direct =
      RunDrill(&wrapped, FtMode::kActiveReplication, /*correlated=*/true,
               [&loop](TimePoint t) { loop.RunUntil(t); });

  backend::SimBackend be;
  DrillResult adapted =
      RunDrill(&be, FtMode::kActiveReplication, /*correlated=*/true,
               [&be](TimePoint t) { be.RunUntil(t); });

  EXPECT_GT(adapted.records.size(), 0u);
  ExpectIdenticalOutput(direct, adapted);
}

// --- ThreadedBackend vs sim: stable output parity --------------------------

TEST(ThreadedBackend, DrillStableOutputMatchesTheSimExactly) {
  // The same fig07 drill, sim vs threads, compared over the *entire*
  // record stream: a single-strand job is deterministic on the threaded
  // backend, so even tentative records must match the sim run.
  backend::SimBackend sim;
  DrillResult golden =
      RunDrill(&sim, FtMode::kCheckpoint, /*correlated=*/false,
               [&sim](TimePoint t) { sim.RunUntil(t); });

  backend::ThreadedBackend threads;
  DrillResult real =
      RunDrill(&threads, FtMode::kCheckpoint, /*correlated=*/false,
               [&threads](TimePoint t) { threads.RunUntil(t); });

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
