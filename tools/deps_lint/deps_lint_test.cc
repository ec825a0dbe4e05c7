#include "tools/deps_lint/deps_lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ppa {
namespace depslint {
namespace {

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

TEST(DepsLintModules, RanksFollowTheLayeringContract) {
  EXPECT_EQ(ModuleRank("common"), 0);
  EXPECT_LT(ModuleRank("topology"), ModuleRank("planner"));
  EXPECT_LT(ModuleRank("engine"), ModuleRank("backend"));
  EXPECT_LT(ModuleRank("backend"), ModuleRank("runtime"));
  EXPECT_LT(ModuleRank("planner"), ModuleRank("exp"));
  EXPECT_LT(ModuleRank("exp"), ModuleRank("service"));
  EXPECT_LT(ModuleRank("service"), ModuleRank("chaos"));
  EXPECT_EQ(ModuleRank("not_a_module"), -1);
}

TEST(DepsLintModules, JsonIsCarvedOutOfReport) {
  EXPECT_EQ(ModuleOf("src/report/json.h"), "json");
  EXPECT_EQ(ModuleOf("src/report/json.cc"), "json");
  EXPECT_EQ(ModuleOf("src/report/experiment_report.h"), "report");
  EXPECT_LT(ModuleRank("json"), ModuleRank("report"));
}

TEST(DepsLintModules, PathsOutsideSrcHaveNoModule) {
  EXPECT_EQ(ModuleOf("bench/driver.h"), "");
  EXPECT_EQ(ModuleOf("tools/deps_lint/deps_lint.h"), "");
}

TEST(DepsLintCheck, DownwardEdgesAreLegal) {
  std::vector<SourceFile> files = {
      {"src/planner/planner.h", "#include \"fidelity/metrics.h\"\n"},
      {"src/chaos/campaign.h", "#include \"service/cluster_service.h\"\n"},
      {"src/obs/trace.h", "#include \"common/status.h\"\n"},
      {"bench/driver.h", "#include \"exp/parallel_runner.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

TEST(DepsLintCheck, UpwardEdgeIsReported) {
  std::vector<SourceFile> files = {
      {"src/topology/types.h", "#include \"planner/planner.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer");
  EXPECT_EQ(diags[0].file, "src/topology/types.h");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(DepsLintCheck, SameRankSiblingsAreReported) {
  std::vector<SourceFile> files = {
      {"src/ft/checkpoint.cc", "#include \"engine/operator.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer");
}

TEST(DepsLintCheck, SrcMustNotDependOnBinaries) {
  std::vector<SourceFile> files = {
      {"src/exp/runner.cc", "#include \"bench/driver.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer");
}

TEST(DepsLintCheck, UnknownModuleIsReported) {
  std::vector<SourceFile> files = {
      {"src/newthing/x.cc", "#include \"common/status.h\"\n"},
      {"src/engine/y.cc", "#include \"newthing/x.h\"\n"},
  };
  auto diags = CheckLayering(files);
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_TRUE(HasRule(diags, "unknown-module"));
  EXPECT_FALSE(HasRule(diags, "layer"));
}

TEST(DepsLintCheck, IncludeCycleIsReported) {
  std::vector<SourceFile> files = {
      {"src/engine/a.h", "#include \"engine/b.h\"\n"},
      {"src/engine/b.h", "#include \"engine/a.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 1u);  // one diagnostic per cycle, not per member
  EXPECT_EQ(diags[0].rule, "cycle");
  EXPECT_NE(diags[0].message.find("src/engine/a.h"), std::string::npos);
  EXPECT_NE(diags[0].message.find("src/engine/b.h"), std::string::npos);
}

TEST(DepsLintCheck, IntraModuleEdgesAreLegalButCyclesAreNot) {
  // The layer rule is silent inside a module; the cycle rule is not.
  std::vector<SourceFile> files = {
      {"src/ft/a.h", "#include \"ft/b.h\"\n"},
      {"src/ft/b.h", "int x;\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

TEST(DepsLintCheck, AngleAndCommentedIncludesAreIgnored) {
  std::vector<SourceFile> files = {
      {"src/topology/types.h",
       "#include <vector>\n"
       "// #include \"planner/planner.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

TEST(DepsLintCheck, OnlyBackendMayIncludeSim) {
  // engine (below backend) and runtime and exp (above it) all get the
  // dedicated sim-isolation diagnostic instead of a generic layer one, for
  // either concrete backend.
  std::vector<SourceFile> files = {
      {"src/engine/task_runtime.cc",
       "#include \"backend/sim_backend.h\"\n"},
      {"src/runtime/job.cc", "#include \"backend/sim_backend.h\"\n"},
      {"src/exp/runner.cc", "#include \"backend/threaded_backend.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 3u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "sim-isolation") << d.file;
  }
  EXPECT_FALSE(HasRule(diags, "layer"));
}

TEST(DepsLintCheck, BackendAndSimItselfMayIncludeSim) {
  std::vector<SourceFile> files = {
      {"src/backend/sim_backend.cc", "#include \"backend/sim_backend.h\"\n"},
      {"src/backend/factory.cc",
       "#include \"backend/threaded_backend.h\"\n"},
      // Everything else names only the interface.
      {"src/runtime/job.cc", "#include \"backend/execution_backend.h\"\n"},
      // The rule only applies to src/: tests and benches build concrete
      // backends when they are testing the backends themselves.
      {"tests/backend_test.cc", "#include \"backend/sim_backend.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

TEST(DepsLintModules, ToolOfNamesTheDirectoryUnderTools) {
  EXPECT_EQ(ToolOf("tools/deps_lint/deps_lint.h"), "deps_lint");
  EXPECT_EQ(ToolOf("tools/bench_diff/main.cc"), "bench_diff");
  EXPECT_EQ(ToolOf("src/obs/trace.h"), "");
  EXPECT_EQ(ToolOf("tools/README.md"), "");
}

TEST(DepsLintCheck, CrossToolIncludeIsReported) {
  std::vector<SourceFile> files = {
      {"tools/bench_diff/main.cc",
       "#include \"tools/deps_lint/deps_lint.h\"\n"},
  };
  auto diags = CheckLayering(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "tool-isolation");
  EXPECT_EQ(diags[0].file, "tools/bench_diff/main.cc");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(DepsLintCheck, IntraToolAndToolToSrcIncludesAreLegal) {
  std::vector<SourceFile> files = {
      {"tools/bench_diff/main.cc",
       "#include \"tools/bench_diff/bench_diff.h\"\n"
       "#include \"report/json.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

TEST(DepsLintCheck, FormatDiagnosticShape) {
  Diagnostic d{"src/sim/x.cc", 3, "layer", "msg"};
  EXPECT_EQ(FormatDiagnostic(d), "src/sim/x.cc:3: [layer] msg");
}

}  // namespace
}  // namespace depslint
}  // namespace ppa
