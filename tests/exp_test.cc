// Tests of the deterministic parallel experiment engine: the thread pool,
// the index-order ParallelRunner, and the serial-vs-parallel bit-identity
// contract the bench binaries rely on (--jobs N must never change any
// output byte).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exp/parallel_runner.h"
#include "planner/planner.h"
#include "report/experiment_report.h"
#include "runtime/config.h"
#include "runtime/job_deps.h"
#include "runtime/streaming_job.h"
#include "topology/random_topology.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPoolTest, EachIndexRunsOnceOnItsOwnThreadAndTheDestructorJoins) {
  constexpr int kThreads = 4;
  std::vector<int> runs(kThreads, 0);
  std::vector<std::thread::id> ids(kThreads);
  std::atomic<int> finished{0};
  // Every body waits here until all are running, so no thread id can be
  // reused by a later body.
  std::latch all_running(kThreads);
  {
    ThreadPool pool(kThreads, [&](int i) {
      ++runs[static_cast<size_t>(i)];
      ids[static_cast<size_t>(i)] = std::this_thread::get_id();
      all_running.arrive_and_wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1);
    });
    EXPECT_EQ(pool.num_threads(), kThreads);
  }
  EXPECT_EQ(finished.load(), kThreads);
  EXPECT_EQ(runs, std::vector<int>(kThreads, 1));
  std::set<std::thread::id> distinct(ids.begin(), ids.end());
  distinct.insert(std::this_thread::get_id());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads) + 1);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  std::vector<int> ran;
  {
    ThreadPool pool(0, [&ran](int i) { ran.push_back(i); });
    EXPECT_EQ(pool.num_threads(), 1);
  }
  EXPECT_EQ(ran, std::vector<int>{0});
  EXPECT_GE(ThreadPool::DefaultParallelism(), 1);
}

// --- ParallelRunner ------------------------------------------------------

TEST(ParallelRunnerTest, SerialWhenJobsIsOne) {
  exp::ParallelRunner runner;
  EXPECT_EQ(runner.jobs(), 1);
  std::vector<int> out =
      runner.Map<int>(5, [](int i) { return i * i; });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(ParallelRunnerTest, ReportsWorkerCount) {
  exp::ParallelRunner runner(4);
  EXPECT_EQ(runner.jobs(), 4);
}

TEST(ParallelRunnerTest, ResultsInSubmissionOrderUnderJitter) {
  // Early indices get the largest busy-work, so with 8 workers the last
  // submissions finish first; the result vector must stay index-ordered
  // regardless.
  exp::ParallelRunner runner(8);
  const int count = 64;
  std::vector<int> out = runner.Map<int>(count, [count](int i) {
    double acc = 0;
    for (int k = 0; k < (count - i) * 4000; ++k) {
      acc += std::sqrt(static_cast<double>(k + i));
    }
    return acc >= 0 ? i : -1;
  });
  ASSERT_EQ(out.size(), static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(ParallelRunnerTest, RunsEveryIndexWhenJobsExceedCount) {
  exp::ParallelRunner runner(8);
  std::vector<std::atomic<int>> runs(3);
  std::vector<int> out = runner.Map<int>(3, [&runs](int i) {
    runs[static_cast<size_t>(i)].fetch_add(1);
    return i + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  for (const std::atomic<int>& r : runs) {
    EXPECT_EQ(r.load(), 1);
  }
}

TEST(ParallelRunnerTest, RethrowsTheLowestThrowingIndexAfterEveryIndexRan) {
  exp::ParallelRunner runner(4);
  std::atomic<int> ran{0};
  auto faulty = [&ran](int i) -> int {
    ran.fetch_add(1);
    if (i == 3) {
      // Lose the race on purpose: index 5 throws first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("boom at 3");
    }
    if (i == 5) {
      throw std::runtime_error("boom at 5");
    }
    return i;
  };
  EXPECT_THAT([&] { (void)runner.Map<int>(8, faulty); },
              testing::ThrowsMessage<std::runtime_error>(
                  testing::StrEq("boom at 3")));
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelRunnerTest, RethrowsWorkerExceptionAndStaysUsable) {
  exp::ParallelRunner runner(4);
  auto faulty = [](int i) -> int {
    if (i == 3) {
      throw std::runtime_error("boom at 3");
    }
    return i;
  };
  EXPECT_THROW(runner.Map<int>(8, faulty), std::runtime_error);
  // The runner survives the unwound Map and keeps producing ordered
  // results.
  std::vector<int> out = runner.Map<int>(6, [](int i) { return i + 10; });
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12, 13, 14, 15}));
}

// The bench binaries' contract: --jobs N never changes an output byte.
// Six fig14-style jobs (a random topology each, the structure-aware plan
// at half the tasks, 8 s of the generic workload on the sim), mapped at
// jobs 1 and 8.
std::vector<std::string> Fig14StyleSweep(int jobs) {
  RandomTopologyOptions options;
  options.min_operators = 3;
  options.max_operators = 5;
  options.min_parallelism = 1;
  options.max_parallelism = 3;
  options.join_fraction = 0.4;
  exp::ParallelRunner runner(jobs);
  return runner.Map<std::string>(6, [&options](int i) {
    Rng rng(DeriveSeed(100, static_cast<uint64_t>(i)));
    auto topo = GenerateRandomTopology(options, &rng);
    PPA_CHECK_OK(topo.status());
    const JobConfig config = JobConfig::PpaDefaults();
    backend::SimBackend be;
    StreamingJob job(*topo, config, JobRuntimeDeps(&be));
    PPA_CHECK_OK(BindGenericWorkload(*topo, config, &job));
    auto plan = CreatePlanner(PlannerKind::kStructureAware)
                    ->Plan(PlanRequest(*topo, topo->num_tasks() / 2));
    PPA_CHECK_OK(plan.status());
    PPA_CHECK_OK(job.SetActiveReplicaSet(plan->replicated));
    PPA_CHECK_OK(job.Start());
    be.RunUntil(TimePoint::Zero() + Duration::Seconds(8));
    return JobSummaryToJson(job).Pretty();
  });
}

TEST(ParallelRunnerTest, ParallelSweepIsBitIdenticalToSerial) {
  const std::vector<std::string> serial = Fig14StyleSweep(1);
  ASSERT_EQ(serial.size(), 6u);
  EXPECT_NE(serial[0], serial[1]);
  EXPECT_EQ(serial, Fig14StyleSweep(8));
}

// --- Seed derivation -----------------------------------------------------

TEST(DeriveSeedTest, DistinctPerIndexAndReproducible) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 256; ++i) {
    const uint64_t s = DeriveSeed(7, i);
    EXPECT_EQ(s, DeriveSeed(7, i));
    EXPECT_TRUE(seen.insert(s).second) << "collision at index " << i;
  }
  EXPECT_NE(DeriveSeed(7, 0), DeriveSeed(8, 0));
}

// --- PlannerKind round-trip ----------------------------------------------

TEST(PlannerKindTest, RoundTripsThroughString) {
  for (PlannerKind kind :
       {PlannerKind::kDynamicProgramming, PlannerKind::kGreedy,
        PlannerKind::kStructureAware, PlannerKind::kExhaustive,
        PlannerKind::kRandom, PlannerKind::kExpectedFidelity}) {
    auto parsed = PlannerKindFromString(PlannerKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << PlannerKindToString(kind);
    EXPECT_EQ(*parsed, kind);
    auto planner = CreatePlanner(kind);
    ASSERT_NE(planner, nullptr);
    EXPECT_EQ(planner->name(), PlannerKindToString(kind));
  }
}

TEST(PlannerKindTest, AcceptsAliasesAndRejectsUnknown) {
  auto sa = PlannerKindFromString("structure-aware");
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(*sa, PlannerKind::kStructureAware);
  auto expected = PlannerKindFromString("expected-fidelity");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, PlannerKind::kExpectedFidelity);
  EXPECT_EQ(PlannerKindFromString("nope").status().code(),
            StatusCode::kInvalidArgument);
}

// --- JobConfig validation ------------------------------------------------

TEST(JobConfigTest, DefaultsAndPresetsValidate) {
  EXPECT_TRUE(JobConfig().Validate().ok());
  EXPECT_TRUE(JobConfig::CheckpointDefaults().Validate().ok());
  EXPECT_TRUE(JobConfig::PpaDefaults().Validate().ok());
  EXPECT_EQ(JobConfig::CheckpointDefaults().ft_mode, FtMode::kCheckpoint);
  EXPECT_EQ(JobConfig::PpaDefaults().ft_mode, FtMode::kPpa);
}

TEST(JobConfigTest, RejectsDegenerateValues) {
  auto broken = [](auto mutate) {
    JobConfig config = JobConfig::CheckpointDefaults();
    mutate(&config);
    return config.Validate();
  };
  EXPECT_EQ(broken([](JobConfig* c) { c->batch_interval = Duration::Zero(); })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) {
              c->detection_interval = Duration::Seconds(-1);
            }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) {
              c->checkpoint_interval = Duration::Zero();
            }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      broken([](JobConfig* c) { c->process_cost_per_tuple_us = -0.5; }).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) { c->num_worker_nodes = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) { c->num_standby_nodes = -1; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) { c->window_batches = 0; }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broken([](JobConfig* c) { c->max_delta_chain = 0; }).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppa
