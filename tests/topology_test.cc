#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_topologies.h"
#include "topology/random_topology.h"
#include "topology/task_set.h"
#include "topology/topology.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;
using ::ppa::testing::MakeFig2;

TEST(TopologyBuilderTest, RejectsEmptyTopology) {
  TopologyBuilder b;
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsBadParallelism) {
  TopologyBuilder b;
  b.AddOperator("x", 0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsSelfLoop) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  b.Connect(a, a, PartitionScheme::kFull);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsCycle) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kFull);
  b.Connect(c, a, PartitionScheme::kFull);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsDuplicateEdge) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kFull);
  b.Connect(a, c, PartitionScheme::kOneToOne);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsIncompatibleOneToOne) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 3);
  b.Connect(a, c, PartitionScheme::kOneToOne);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsIncompatibleSplit) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 3);
  b.Connect(a, c, PartitionScheme::kSplit);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsSplitFactorOne) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 3);
  OperatorId c = b.AddOperator("c", 3);
  b.Connect(a, c, PartitionScheme::kSplit);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsIncompatibleMerge) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 3);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kMerge);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsDisconnectedOperator) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  b.AddOperator("island", 2);
  b.Connect(a, c, PartitionScheme::kFull);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsRateOnNonSource) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kFull);
  b.SetSourceRate(c, 10.0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyBuilderTest, RejectsNonPositiveWeight) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kFull);
  b.SetTaskWeight(a, 0, 0.0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyTest, ExpandsTasksAndClassifiesSourcesSinks) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge);
  EXPECT_EQ(t.num_operators(), 3);
  EXPECT_EQ(t.num_tasks(), 7);
  ASSERT_EQ(t.source_operators().size(), 1u);
  ASSERT_EQ(t.sink_operators().size(), 1u);
  EXPECT_EQ(t.op(t.source_operators()[0]).name, "src");
  EXPECT_EQ(t.op(t.sink_operators()[0]).name, "sink");
  EXPECT_TRUE(t.IsSourceTask(t.op(0).tasks[0]));
  EXPECT_TRUE(t.IsSinkTask(t.op(2).tasks[0]));
  EXPECT_FALSE(t.IsSourceTask(t.op(1).tasks[0]));
}

TEST(TopologyTest, OneToOneWiring) {
  Topology t = MakeChain(3, 3, 3, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  for (const Substream& s : t.substreams()) {
    EXPECT_EQ(t.task(s.from).index_in_op, t.task(s.to).index_in_op);
  }
  EXPECT_EQ(t.substreams().size(), 6u);
}

TEST(TopologyTest, SplitWiring) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 6);
  b.Connect(a, c, PartitionScheme::kSplit);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  // Each upstream task feeds 3 downstream tasks; each downstream task has
  // exactly one upstream.
  for (TaskId task : t->op(c).tasks) {
    EXPECT_EQ(t->task(task).in_substreams.size(), 1u);
  }
  for (TaskId task : t->op(a).tasks) {
    EXPECT_EQ(t->task(task).out_substreams.size(), 3u);
  }
}

TEST(TopologyTest, MergeWiring) {
  TopologyBuilder b;
  OperatorId a = b.AddOperator("a", 6);
  OperatorId c = b.AddOperator("c", 2);
  b.Connect(a, c, PartitionScheme::kMerge);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  for (TaskId task : t->op(c).tasks) {
    EXPECT_EQ(t->task(task).in_substreams.size(), 3u);
  }
  for (TaskId task : t->op(a).tasks) {
    EXPECT_EQ(t->task(task).out_substreams.size(), 1u);
  }
}

TEST(TopologyTest, FullWiring) {
  Topology t = MakeChain(2, 3, 1, PartitionScheme::kFull,
                         PartitionScheme::kFull);
  EXPECT_EQ(t.substreams().size(), 2u * 3u + 3u * 1u);
}

TEST(TopologyTest, EdgeSchemeLookup) {
  Topology t = MakeChain(2, 4, 2, PartitionScheme::kSplit,
                         PartitionScheme::kMerge);
  auto s01 = t.EdgeScheme(0, 1);
  ASSERT_TRUE(s01.ok());
  EXPECT_EQ(*s01, PartitionScheme::kSplit);
  EXPECT_EQ(t.EdgeScheme(0, 2).status().code(), StatusCode::kNotFound);
}

TEST(TopologyTest, UniformRateDerivation) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge, /*source_rate=*/1000.0);
  // 4 source tasks at 250 each; 2 mid tasks at 500; sink at 1000.
  for (TaskId task : t.op(0).tasks) {
    EXPECT_DOUBLE_EQ(t.task(task).output_rate, 250.0);
  }
  for (TaskId task : t.op(1).tasks) {
    EXPECT_DOUBLE_EQ(t.task(task).output_rate, 500.0);
  }
  EXPECT_DOUBLE_EQ(t.task(t.op(2).tasks[0]).output_rate, 1000.0);
}

TEST(TopologyTest, SelectivityScalesRates) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId agg = b.AddOperator("agg", 2, InputCorrelation::kIndependent,
                                 /*selectivity=*/0.5);
  b.Connect(src, agg, PartitionScheme::kOneToOne);
  b.SetSourceRate(src, 1000.0);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  for (TaskId task : t->op(agg).tasks) {
    EXPECT_DOUBLE_EQ(t->task(task).output_rate, 250.0);
  }
}

TEST(TopologyTest, WeightedRateDerivation) {
  testing::Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  EXPECT_DOUBLE_EQ(f.topo.task(f.t11).output_rate, 1.0);
  EXPECT_DOUBLE_EQ(f.topo.task(f.t12).output_rate, 2.0);
  EXPECT_DOUBLE_EQ(f.topo.task(f.t21).output_rate, 3.0);
  EXPECT_DOUBLE_EQ(f.topo.task(f.t22).output_rate, 2.0);
  EXPECT_DOUBLE_EQ(f.topo.task(f.t31).output_rate, 8.0);
}

TEST(TopologyTest, FullEdgeSplitsByWeight) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 1);
  OperatorId down = b.AddOperator("down", 2);
  b.Connect(src, down, PartitionScheme::kFull);
  b.SetSourceRate(src, 900.0);
  b.SetTaskWeight(down, 0, 2.0);
  b.SetTaskWeight(down, 1, 1.0);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->task(t->op(down).tasks[0]).output_rate, 600.0);
  EXPECT_DOUBLE_EQ(t->task(t->op(down).tasks[1]).output_rate, 300.0);
}

TEST(TopologyTest, TaskLabel) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  EXPECT_EQ(t.TaskLabel(t.op(1).tasks[1]), "mid[1]");
}

TEST(TaskSetTest, BasicOperations) {
  TaskSet s(5);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Add(2));
  EXPECT_FALSE(s.Add(2));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.Remove(2));
  EXPECT_FALSE(s.Remove(2));
  EXPECT_TRUE(s.empty());
}

TEST(TaskSetTest, SetAlgebra) {
  TaskSet a(4), c(4);
  a.Add(0);
  a.Add(1);
  c.Add(1);
  c.Add(3);
  TaskSet u = a;
  u.UnionWith(c);
  EXPECT_EQ(u.size(), 3);
  EXPECT_EQ(a.CountMissing(c), 1);
  EXPECT_TRUE(a.IsSubsetOf(u));
  EXPECT_FALSE(u.IsSubsetOf(a));
  TaskSet comp = a.Complement();
  EXPECT_EQ(comp.size(), 2);
  EXPECT_TRUE(comp.Contains(2));
  EXPECT_TRUE(comp.Contains(3));
  EXPECT_EQ(TaskSet::All(4).size(), 4);
  EXPECT_EQ(a.ToVector(), (std::vector<TaskId>{0, 1}));
}

TEST(RandomTopologyTest, RespectsOperatorCountRange) {
  Rng rng(1);
  RandomTopologyOptions opts;
  opts.min_operators = 5;
  opts.max_operators = 10;
  for (int i = 0; i < 50; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok()) << t.status();
    EXPECT_GE(t->num_operators(), 5);
    EXPECT_LE(t->num_operators(), 10);
    EXPECT_EQ(t->sink_operators().size(), 1u);
  }
}

TEST(RandomTopologyTest, FullKindUsesOnlyFullEdges) {
  Rng rng(2);
  RandomTopologyOptions opts;
  opts.kind = RandomTopologyOptions::Kind::kFull;
  for (int i = 0; i < 20; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok());
    for (const StreamEdge& e : t->edges()) {
      EXPECT_EQ(e.scheme, PartitionScheme::kFull);
    }
  }
}

TEST(RandomTopologyTest, StructuredKindAvoidsFullEdges) {
  Rng rng(3);
  RandomTopologyOptions opts;
  opts.kind = RandomTopologyOptions::Kind::kStructured;
  for (int i = 0; i < 20; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok());
    for (const StreamEdge& e : t->edges()) {
      EXPECT_NE(e.scheme, PartitionScheme::kFull);
    }
  }
}

TEST(RandomTopologyTest, JoinFractionProducesCorrelatedOps) {
  Rng rng(4);
  RandomTopologyOptions opts;
  opts.join_fraction = 1.0;
  int correlated = 0, multi_input = 0;
  for (int i = 0; i < 30; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok());
    for (const OperatorInfo& oi : t->operators()) {
      if (oi.upstream.size() >= 2) {
        ++multi_input;
        if (oi.correlation == InputCorrelation::kCorrelated) {
          ++correlated;
        }
      }
    }
  }
  EXPECT_GT(multi_input, 0);
  EXPECT_EQ(correlated, multi_input);
}

TEST(RandomTopologyTest, ZeroJoinFractionProducesNoJoins) {
  Rng rng(5);
  RandomTopologyOptions opts;
  opts.join_fraction = 0.0;
  for (int i = 0; i < 20; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok());
    for (const OperatorInfo& oi : t->operators()) {
      EXPECT_EQ(oi.correlation, InputCorrelation::kIndependent);
    }
  }
}

TEST(RandomTopologyTest, ZipfSkewVariesTaskRates) {
  Rng rng(6);
  RandomTopologyOptions opts;
  opts.skew = RandomTopologyOptions::WorkloadSkew::kZipf;
  opts.zipf_s = 1.0;  // Exaggerated skew for a robust check.
  opts.min_parallelism = 4;
  opts.max_parallelism = 8;
  bool found_skewed = false;
  for (int i = 0; i < 10 && !found_skewed; ++i) {
    auto t = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(t.ok());
    for (const OperatorInfo& oi : t->operators()) {
      double lo = 1e18, hi = 0;
      for (TaskId task : oi.tasks) {
        lo = std::min(lo, t->task(task).weight);
        hi = std::max(hi, t->task(task).weight);
      }
      if (hi > lo * 1.2) {
        found_skewed = true;
      }
    }
  }
  EXPECT_TRUE(found_skewed);
}

TEST(RandomTopologyTest, DeterministicGivenSeed) {
  RandomTopologyOptions opts;
  Rng r1(99), r2(99);
  auto a = GenerateRandomTopology(opts, &r1);
  auto b = GenerateRandomTopology(opts, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_operators(), b->num_operators());
  EXPECT_EQ(a->num_tasks(), b->num_tasks());
  ASSERT_EQ(a->edges().size(), b->edges().size());
  for (size_t i = 0; i < a->edges().size(); ++i) {
    EXPECT_EQ(a->edges()[i].from, b->edges()[i].from);
    EXPECT_EQ(a->edges()[i].to, b->edges()[i].to);
    EXPECT_EQ(a->edges()[i].scheme, b->edges()[i].scheme);
  }
}

}  // namespace
}  // namespace ppa
