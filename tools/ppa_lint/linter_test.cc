#include "tools/ppa_lint/linter.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ppa {
namespace lint {
namespace {

// Set by CMake to tools/ppa_lint/testdata.
#ifndef PPA_LINT_TESTDATA_DIR
#error "PPA_LINT_TESTDATA_DIR must be defined"
#endif

std::string ReadFixture(const std::string& tree_relative) {
  std::string full = std::string(PPA_LINT_TESTDATA_DIR) + "/" + tree_relative;
  std::ifstream in(full, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open fixture " << full;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lints a fixture under testdata/<tree>/<path>, using <path> as the
/// repo-relative path (the trees mirror a real repo layout).
std::vector<Diagnostic> LintFixture(const std::string& tree,
                                    const std::string& path) {
  return LintFile(path, ReadFixture(tree + "/" + path));
}

std::set<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::set<std::string> rules;
  for (const Diagnostic& d : diags) {
    rules.insert(d.rule);
  }
  return rules;
}

bool HasFinding(const std::vector<Diagnostic>& diags, const std::string& rule,
                int line) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.line == line;
  });
}

TEST(PpaLintFixtures, WallClock) {
  auto diags = LintFixture("bad", "src/engine/wall_clock.cc");
  // Under src/ every wall-clock read trips both the legacy suppressible
  // rule and the hard sim-determinism rule.
  EXPECT_EQ(Rules(diags),
            (std::set<std::string>{"wall-clock", "no-wallclock-in-sim"}));
  EXPECT_TRUE(HasFinding(diags, "wall-clock", 8));   // system_clock
  EXPECT_TRUE(HasFinding(diags, "wall-clock", 10));  // steady_clock
  EXPECT_TRUE(HasFinding(diags, "wall-clock", 12));  // time(
  EXPECT_TRUE(HasFinding(diags, "no-wallclock-in-sim", 8));
  EXPECT_TRUE(HasFinding(diags, "no-wallclock-in-sim", 12));
}

TEST(PpaLintFixtures, RawMutex) {
  auto diags = LintFixture("bad", "src/engine/raw_mutex.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"no-raw-mutex"});
  EXPECT_TRUE(HasFinding(diags, "no-raw-mutex", 3));   // #include <mutex>
  EXPECT_TRUE(HasFinding(diags, "no-raw-mutex", 7));   // std::mutex
  EXPECT_TRUE(HasFinding(diags, "no-raw-mutex", 10));  // lock_guard
}

TEST(PpaLintFixtures, RawThread) {
  auto diags = LintFixture("bad", "src/engine/raw_thread.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"no-raw-thread"});
  EXPECT_TRUE(HasFinding(diags, "no-raw-thread", 2));  // #include <thread>
  EXPECT_TRUE(HasFinding(diags, "no-raw-thread", 7));  // std::thread
}

TEST(PpaLintFixtures, WallClockInSimIsNotSuppressible) {
  auto diags = LintFixture("bad", "src/engine/wallclock_sim.cc");
  // The allow() comment silences wall-clock but the hard rule survives.
  EXPECT_EQ(Rules(diags), std::set<std::string>{"no-wallclock-in-sim"});
  EXPECT_TRUE(HasFinding(diags, "no-wallclock-in-sim", 10));
}

TEST(PpaLintFixtures, UnguardedMember) {
  auto diags = LintFixture("bad", "src/engine/unguarded_member.h");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"guarded-member-doc"});
  EXPECT_TRUE(HasFinding(diags, "guarded-member-doc", 20));  // total_
  EXPECT_EQ(diags.size(), 1u);  // count_ annotated, limit_ commented
}

TEST(PpaLintFixtures, Random) {
  auto diags = LintFixture("bad", "src/planner/random.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"random"});
  EXPECT_TRUE(HasFinding(diags, "random", 3));   // #include <random>
  EXPECT_TRUE(HasFinding(diags, "random", 8));   // random_device
  EXPECT_TRUE(HasFinding(diags, "random", 9));   // mt19937
  EXPECT_TRUE(HasFinding(diags, "random", 11));  // rand(
}

TEST(PpaLintFixtures, Getenv) {
  auto diags = LintFixture("bad", "src/runtime/env.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"getenv"});
  EXPECT_TRUE(HasFinding(diags, "getenv", 7));
}

TEST(PpaLintFixtures, UnorderedIteration) {
  auto diags = LintFixture("bad", "src/ft/unordered_iteration.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"unordered-iteration"});
  EXPECT_TRUE(HasFinding(diags, "unordered-iteration", 11));  // member
  EXPECT_TRUE(HasFinding(diags, "unordered-iteration", 23));  // parameter
  EXPECT_TRUE(HasFinding(diags, "unordered-iteration", 26));  // literal
}

TEST(PpaLintFixtures, Exceptions) {
  auto diags = LintFixture("bad", "src/report/exceptions.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"exceptions"});
  EXPECT_TRUE(HasFinding(diags, "exceptions", 7));   // try
  EXPECT_TRUE(HasFinding(diags, "exceptions", 9));   // throw
  EXPECT_TRUE(HasFinding(diags, "exceptions", 11));  // catch
}

TEST(PpaLintFixtures, Abort) {
  auto diags = LintFixture("bad", "src/engine/bare_abort.cc");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"abort"});
  EXPECT_TRUE(HasFinding(diags, "abort", 8));
}

TEST(PpaLintFixtures, HeaderGuardMismatch) {
  auto diags = LintFixture("bad", "src/engine/guard_mismatch.h");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"header-guard"});
  EXPECT_TRUE(HasFinding(diags, "header-guard", 1));
}

TEST(PpaLintFixtures, MissingDoxygen) {
  auto diags = LintFixture("bad", "src/engine/missing_doc.h");
  EXPECT_EQ(Rules(diags), std::set<std::string>{"doxygen"});
  EXPECT_TRUE(HasFinding(diags, "doxygen", 8));   // class Widget
  EXPECT_TRUE(HasFinding(diags, "doxygen", 16));  // CountWidgets
}

TEST(PpaLintFixtures, GoodTreeIsClean) {
  for (const char* path : {"src/engine/clean.h", "src/engine/annotated.h",
                           "bench/suppressed.cc"}) {
    auto diags = LintFixture("good", path);
    EXPECT_TRUE(diags.empty())
        << path << ": " << (diags.empty() ? "" : FormatDiagnostic(diags[0]));
  }
}

// --- Inline unit tests ------------------------------------------------------

TEST(PpaLintRules, MemberAndForeignNamespaceCallsAreNotWallClock) {
  auto diags = LintFile("src/obs/trace.cc",
                        "void F(Tracer& t) {\n"
                        "  t.time();\n"
                        "  t->clock();\n"
                        "  mylib::time(3);\n"
                        "}\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PpaLintRules, StdQualifiedTimeIsWallClock) {
  auto diags = LintFile("src/obs/trace.cc", "long t = std::time(nullptr);\n");
  EXPECT_EQ(Rules(diags),
            (std::set<std::string>{"wall-clock", "no-wallclock-in-sim"}));
}

TEST(PpaLintRules, ConcurrencyRulesExemptCommon) {
  std::string body = "#include <mutex>\nstd::mutex mu;\n";
  EXPECT_TRUE(LintFile("src/common/thread_pool.cc", body).empty());
  auto diags = LintFile("src/exp/runner.cc", body);
  EXPECT_EQ(Rules(diags), std::set<std::string>{"no-raw-mutex"});
  EXPECT_EQ(diags.size(), 2u);  // include line + declaration line
}

TEST(PpaLintRules, WallClockShimIsTheOnlySimClockAllowlist) {
  std::string body =
      "// ppa-lint: allow-file(wall-clock)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(LintFile("src/common/wall_clock.cc", body).empty());
  auto diags = LintFile("src/backend/sim_backend.cc", body);
  EXPECT_EQ(Rules(diags), std::set<std::string>{"no-wallclock-in-sim"});
}

TEST(PpaLintRules, GuardedMemberDocRequiresAMutexMember) {
  // Plain structs without a mutex owe no annotations, and a method
  // taking a Mutex* does not make the class mutex-holding.
  std::string header =
      "#ifndef PPA_ENGINE_X_H_\n"
      "#define PPA_ENGINE_X_H_\n"
      "namespace ppa {\n"
      "/// A plain aggregate.\n"
      "struct Snapshot {\n"
      "  int done = 0;\n"
      "  int failed = 0;\n"
      "};\n"
      "}  // namespace ppa\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("src/engine/x.h", header).empty());
}

TEST(PpaLintRules, CommentsAndStringsAreScrubbed) {
  auto diags = LintFile("src/engine/x.cc",
                        "// rand() and throw and time(nullptr)\n"
                        "/* std::mt19937 too */\n"
                        "const char* s = \"getenv(\\\"HOME\\\")\";\n"
                        "const char* r = R\"(abort() catch)\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(PpaLintRules, DigitSeparatorsDoNotBreakScrubbing) {
  // If 1'000 opened a char literal, the rand() call after it would be
  // scrubbed and missed.
  auto diags = LintFile("src/engine/x.cc",
                        "int n = 1'000'000;\n"
                        "int r = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "random");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(PpaLintRules, RandomAllowedInCommonRandom) {
  EXPECT_TRUE(
      LintFile("src/common/random.cc", "#include <random>\nint r = rand();\n")
          .empty());
  EXPECT_TRUE(LintFile("src/common/random.h",
                       "#ifndef PPA_COMMON_RANDOM_H_\n"
                       "#define PPA_COMMON_RANDOM_H_\n"
                       "/// The engine state.\n"
                       "std::mt19937 gen;\n"
                       "#endif\n")
                  .empty());
}

TEST(PpaLintRules, AbortAllowedInCommon) {
  EXPECT_TRUE(LintFile("src/common/logging.cc", "std::abort();\n").empty());
  ASSERT_FALSE(LintFile("src/engine/x.cc", "std::abort();\n").empty());
}

TEST(PpaLintRules, ExceptionsRuleOnlyAppliesUnderSrc) {
  std::string body = "void F() { try { } catch (...) { } }\n";
  EXPECT_TRUE(LintFile("tests/foo_test.cc", body).empty());
  EXPECT_FALSE(LintFile("src/engine/x.cc", body).empty());
}

TEST(PpaLintRules, HeaderGuardExpectsPathDerivedName) {
  // src/ prefix is stripped; other top-level dirs are kept.
  EXPECT_TRUE(LintFile("src/engine/x.h",
                       "#ifndef PPA_ENGINE_X_H_\n#define PPA_ENGINE_X_H_\n"
                       "#endif\n")
                  .empty());
  EXPECT_TRUE(LintFile("tests/util.h",
                       "#ifndef PPA_TESTS_UTIL_H_\n#define PPA_TESTS_UTIL_H_\n"
                       "#endif\n")
                  .empty());
  auto diags = LintFile("src/engine/x.h",
                        "#ifndef PPA_ENGINE_Y_H_\n#define PPA_ENGINE_Y_H_\n"
                        "#endif\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "header-guard");
}

TEST(PpaLintRules, HeaderWithoutGuardIsFlagged) {
  auto diags = LintFile("src/engine/x.h", "int x;\n");
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].rule, "header-guard");
}

TEST(PpaLintRules, DoxygenGroupCommentCoversAdjacentDeclarations) {
  std::string header =
      "#ifndef PPA_ENGINE_X_H_\n"
      "#define PPA_ENGINE_X_H_\n"
      "namespace ppa {\n"
      "/// Factory helpers.\n"
      "int MakeOne();\n"
      "int MakeTwo();\n"
      "}  // namespace ppa\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("src/engine/x.h", header).empty());
}

TEST(PpaLintRules, DoxygenSkipsForwardDeclarationsAndVariables) {
  std::string header =
      "#ifndef PPA_ENGINE_X_H_\n"
      "#define PPA_ENGINE_X_H_\n"
      "namespace ppa {\n"
      "class Forward;\n"
      "inline constexpr int kLimit = Compute(3);\n"
      "}  // namespace ppa\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("src/engine/x.h", header).empty());
}

TEST(PpaLintRules, DoxygenOnlyAppliesToPublicHeaders) {
  std::string body = "namespace ppa {\nclass Undocumented {};\n}\n";
  EXPECT_TRUE(LintFile("src/engine/x.cc", body).empty());
  EXPECT_TRUE(LintFile("tests/helper.h",
                       "#ifndef PPA_TESTS_HELPER_H_\n"
                       "#define PPA_TESTS_HELPER_H_\n" +
                           body + "#endif\n")
                  .empty());
}

TEST(PpaLintRules, TemplatesAndAttributesDoNotHideDeclarations) {
  std::string header =
      "#ifndef PPA_ENGINE_X_H_\n"
      "#define PPA_ENGINE_X_H_\n"
      "namespace ppa {\n"
      "template <typename T>\n"
      "class Holder {};\n"
      "}  // namespace ppa\n"
      "#endif\n";
  auto diags = LintFile("src/engine/x.h", header);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "doxygen");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(PpaLintRules, UnknownRuleInAllowDoesNotSuppressOthers) {
  auto diags = LintFile("src/engine/x.cc",
                        "int r = rand();  // ppa-lint: allow(wall-clock)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "random");
}

TEST(PpaLintRules, FormatDiagnosticShape) {
  Diagnostic d{"src/engine/x.cc", 12, "random", "msg"};
  EXPECT_EQ(FormatDiagnostic(d), "src/engine/x.cc:12: [random] msg");
}

TEST(PpaLintRules, AllRuleNamesIsStable) {
  const auto& rules = AllRuleNames();
  EXPECT_EQ(rules.size(), 12u);
  for (const char* rule :
       {"unordered-iteration", "no-raw-mutex", "no-raw-thread",
        "no-wallclock-in-sim", "guarded-member-doc"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end())
        << rule;
  }
}

}  // namespace
}  // namespace lint
}  // namespace ppa
