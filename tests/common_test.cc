#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/status_or.h"

namespace ppa {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(NotFound("x"), NotFound("x"));
  EXPECT_FALSE(NotFound("x") == NotFound("y"));
  EXPECT_FALSE(NotFound("x") == Internal("x"));
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ResourceExhausted("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("").code(), StatusCode::kInternal);
}

Status ReturnIfErrorHelper(const Status& s, bool* reached_end) {
  PPA_RETURN_IF_ERROR(s);
  *reached_end = true;
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  bool reached = false;
  EXPECT_TRUE(ReturnIfErrorHelper(OkStatus(), &reached).ok());
  EXPECT_TRUE(reached);
  reached = false;
  Status s = ReturnIfErrorHelper(Internal("boom"), &reached);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_FALSE(reached);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, DereferencingAnRvalueMovesTheValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  std::unique_ptr<int> taken = *std::move(v);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> AssignOrReturnHelper(StatusOr<int> in) {
  int doubled = 0;
  PPA_ASSIGN_OR_RETURN(doubled, in);
  return doubled * 2;
}

TEST(StatusOrDeathTest, ValueOnErrorDiesThroughLogging) {
  StatusOr<int> v = NotFound("missing blob");
  // The death message must come from common/logging (FATAL with file:line)
  // and embed the carried status.
  EXPECT_DEATH(v.value(),
               "FATAL.*StatusOr::value\\(\\) called on error: "
               "NotFound: missing blob");
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  StatusOr<int> ok = AssignOrReturnHelper(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> err = AssignOrReturnHelper(Internal("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextInt(0, 3));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, UniformWhenSZero) {
  ZipfGenerator zipf(10, 0.0);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.Pmf(r), 0.1, 1e-12);
  }
}

TEST(ZipfTest, PmfDecreasesWithRank) {
  ZipfGenerator zipf(100, 1.0);
  for (size_t r = 1; r < 100; ++r) {
    EXPECT_GT(zipf.Pmf(r - 1), zipf.Pmf(r));
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfGenerator zipf(1000, 0.5);
  double total = 0.0;
  for (size_t r = 0; r < 1000; ++r) {
    total += zipf.Pmf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfGenerator zipf(5, 1.0);
  Rng rng(42);
  std::vector<int> counts(5, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.Sample(&rng)];
  }
  for (size_t r = 0; r < 5; ++r) {
    double freq = static_cast<double>(counts[r]) / kDraws;
    EXPECT_NEAR(freq, zipf.Pmf(r), 0.01) << "rank " << r;
  }
}

TEST(HashTest, StableKnownValues) {
  // FNV-1a 64 reference value for the empty string.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("acb"));
}

TEST(HashTest, Mix64Bijective) {
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 1000; ++i) {
    out.insert(Mix64(i));
  }
  EXPECT_EQ(out.size(), 1000u);
}

TEST(SimTimeTest, Arithmetic) {
  Duration d = Duration::Seconds(1.5);
  EXPECT_EQ(d.micros(), 1500000);
  EXPECT_EQ((d + Duration::Millis(500)).micros(), 2000000);
  EXPECT_EQ((d - Duration::Millis(500)).micros(), 1000000);
  EXPECT_EQ((d * 2).micros(), 3000000);
  EXPECT_EQ((d / 3).micros(), 500000);
  TimePoint t = TimePoint::Zero() + d;
  EXPECT_DOUBLE_EQ(t.seconds(), 1.5);
  EXPECT_EQ((t - TimePoint::Zero()).micros(), d.micros());
}

TEST(SimTimeTest, Comparisons) {
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_LE(TimePoint::Zero(), TimePoint::FromMicros(0));
  EXPECT_GT(TimePoint::FromMicros(5), TimePoint::FromMicros(4));
}

TEST(SimTimeTest, ToString) {
  EXPECT_EQ(Duration::Seconds(2.0).ToString(), "2.000000s");
  EXPECT_EQ(TimePoint::FromMicros(1500000).ToString(), "t=1.500000s");
}

}  // namespace
}  // namespace ppa
