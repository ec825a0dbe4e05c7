// Tests of bench::Driver's shared flag parsing: values are taken in both
// forms and stripped from argv, and a malformed --jobs or --seed exits 2
// instead of being read as 0. NumberOrExit, the parser behind them, also
// reads binaries' own numeric flags, fractional ones included.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/driver.h"
#include "common/thread_pool.h"

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

}  // namespace
}  // namespace bench
}  // namespace ppa
