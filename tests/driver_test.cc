// Tests of bench::Driver's shared flag parsing: values are taken in both
// forms and stripped from argv, and a malformed --jobs or --seed exits 2
// instead of being read as 0. NumberOrExit, the parser behind them, also
// reads binaries' own numeric flags, fractional ones included. Also: the
// JSON sinks report a write that does not reach the disk, and the Fig. 6
// drill every recovery bench runs gives the same result on both backends.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/execution_backend.h"
#include "bench/bench_util.h"
#include "bench/driver.h"
#include "common/thread_pool.h"
#include "report/json.h"

namespace ppa {
namespace bench {
namespace {

/// Parses `args` (argv[0] excluded) and returns the driver; `*rest` gets
/// what FromArgs left in argv.
Driver Parse(std::vector<std::string> args,
             std::vector<std::string>* rest = nullptr) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  int argc = static_cast<int>(argv.size());
  Driver driver = Driver::FromArgs(&argc, argv.data());
  if (rest != nullptr) {
    rest->assign(argv.begin() + 1, argv.begin() + argc);
  }
  return driver;
}

TEST(DriverTest, ParsesJobsAndSeedAndStripsThem) {
  std::vector<std::string> rest;
  const Driver driver =
      Parse({"--jobs=3", "--own", "--seed", "42", "x"}, &rest);
  EXPECT_EQ(driver.jobs(), 3);
  EXPECT_EQ(driver.seed_or(7), 42u);
  EXPECT_EQ(rest, (std::vector<std::string>{"--own", "x"}));
}

TEST(DriverTest, DefaultsAndJobsZeroMeansEveryHardwareThread) {
  const Driver defaults = Parse({});
  EXPECT_EQ(defaults.jobs(), 1);
  EXPECT_EQ(defaults.seed_or(7), 7u);
  EXPECT_EQ(Parse({"--jobs", "0"}).jobs(), ThreadPool::DefaultParallelism());
}

TEST(DriverDeathTest, JobsThatIsNotAWholeNumberExitsTwo) {
  for (const char* value : {"abc", "-1", "2x", "1.5", "", "99999999999"}) {
    SCOPED_TRACE(value);
    EXPECT_EXIT((void)Parse({"--jobs", value}), testing::ExitedWithCode(2),
                "--jobs: expected a whole number >= 0");
  }
}

TEST(DriverDeathTest, SeedThatIsNotAWholeNumberExitsTwo) {
  for (const char* value : {"abc", "-5", "7s", " 7"}) {
    SCOPED_TRACE(value);
    EXPECT_EXIT((void)Parse({"--seed=" + std::string(value)}),
                testing::ExitedWithCode(2),
                "--seed: expected a whole number >= 0");
  }
}

TEST(NumberOrExitTest, ReadsWholeAndFractionalNumbers) {
  EXPECT_EQ(NumberOrExit<int>("--budget", "3"), 3);
  EXPECT_DOUBLE_EQ(NumberOrExit<double>("--seconds", "1.5"), 1.5);
  EXPECT_DOUBLE_EQ(NumberOrExit<double>("--seconds", "60"), 60.0);
}

TEST(DriverDeathTest, FractionalFlagThatIsNotANumberExitsTwo) {
  for (const char* value : {"abc", "1x", "-1", "inf", "nan", ""}) {
    SCOPED_TRACE(value);
    EXPECT_EXIT((void)NumberOrExit<double>("--seconds", value),
                testing::ExitedWithCode(2),
                "--seconds: expected a number >= 0");
  }
}

// /dev/full accepts the open and fails the flush, so only a writer that
// checks its write and close sees the failure.
TEST(BenchSinkTest, MetricsSinkReportsAFullDevice) {
  BenchMetricsSink sink("/dev/full");
  sink.Add("run", JsonValue::Object());
  EXPECT_FALSE(sink.Write("bench"));
}

TEST(BenchSinkTest, DocumentSinkReportsAFullDevice) {
  JsonDocumentSink sink("/dev/full", "chrome trace", JsonValue::Object());
  EXPECT_FALSE(sink.Write());
}

TEST(BenchSinkTest, FinishFailsWhenASinkCannotBeWritten) {
  EXPECT_EQ(Parse({"--metrics_out=/dev/full"}).Finish("bench"), 1);
  EXPECT_EQ(Parse({"--chrome_trace_out", "/dev/full"}).Finish("bench"), 1);
  EXPECT_EQ(Parse({}).Finish("bench"), 0);
}

/// A metrics snapshot (obs::MetricsToJson) without the entries the
/// backend itself books ("sim.*" or "backend.*"), which name the backend.
std::string JobMetricsJson(const JsonValue& all) {
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

// One correlated-failure repetition of the Fig. 6 drill under PPA with
// the half-budget plan: the threaded backend must reproduce the sim's
// recovery latencies, CPU ratio, fidelity series and metrics exactly.
TEST(Fig6DrillTest, SameResultOnSimAndThreads) {
  Fig6Options options;
  options.config = PaperJobConfig(FtMode::kPpa);
  options.correlated = true;
  options.replica_share = 0.5;
  Fig6Result results[2];
  const backend::BackendKind kinds[] = {backend::BackendKind::kSim,
                                        backend::BackendKind::kThreads};
  for (int i = 0; i < 2; ++i) {
    StatusOr<Fig6Run> run = RunFig6Drill(options, kinds[i]);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->backend->kind(), kinds[i]);
    ASSERT_FALSE(run->job->recovery_reports().empty());
    results[i] = Fig6ResultOf(*run);
  }
  const Fig6Result& sim = results[0];
  const Fig6Result& threads = results[1];
  EXPECT_GT(sim.total_latency.micros(), sim.active_latency.micros());
  EXPECT_GT(sim.fidelity.size(), 0u);
  EXPECT_EQ(sim.total_latency.micros(), threads.total_latency.micros());
  EXPECT_EQ(sim.active_latency.micros(), threads.active_latency.micros());
  EXPECT_EQ(sim.passive_latency.micros(), threads.passive_latency.micros());
  EXPECT_EQ(sim.checkpoint_cpu_ratio, threads.checkpoint_cpu_ratio);
  EXPECT_EQ(sim.fidelity.Serialize(), threads.fidelity.Serialize());
  EXPECT_EQ(JobMetricsJson(sim.metrics), JobMetricsJson(threads.metrics));
}

}  // namespace
}  // namespace bench
}  // namespace ppa
