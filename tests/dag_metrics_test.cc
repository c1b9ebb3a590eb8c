// Tests for dag/metrics.h: work, span, heights, depths, the W(d) profile.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dag/builders.h"
#include "dag/metrics.h"
#include "gen/random_trees.h"

namespace otsched {
namespace {

TEST(Metrics, EmptyDag) {
  const DagMetrics m = ComputeMetrics(Dag());
  EXPECT_EQ(m.work, 0);
  EXPECT_EQ(m.span, 0);
  EXPECT_EQ(m.w_deeper(0), 0);
}

TEST(Metrics, SingleNode) {
  const DagMetrics m = ComputeMetrics(MakeChain(1));
  EXPECT_EQ(m.work, 1);
  EXPECT_EQ(m.span, 1);
  EXPECT_EQ(m.height[0], 1);
  EXPECT_EQ(m.depth[0], 1);
  EXPECT_EQ(m.w_deeper(0), 1);
  EXPECT_EQ(m.w_deeper(1), 0);
}

TEST(Metrics, Chain) {
  const DagMetrics m = ComputeMetrics(MakeChain(5));
  EXPECT_EQ(m.work, 5);
  EXPECT_EQ(m.span, 5);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(m.depth[static_cast<std::size_t>(v)], v + 1);
    EXPECT_EQ(m.height[static_cast<std::size_t>(v)], 5 - v);
  }
  // W(d) = 5 - d along a chain.
  for (std::int64_t d = 0; d <= 5; ++d) EXPECT_EQ(m.w_deeper(d), 5 - d);
}

TEST(Metrics, Star) {
  const DagMetrics m = ComputeMetrics(MakeStar(4));
  EXPECT_EQ(m.span, 2);
  EXPECT_EQ(m.height[0], 2);
  EXPECT_EQ(m.w_deeper(0), 5);
  EXPECT_EQ(m.w_deeper(1), 4);  // the four leaves sit at depth 2
  EXPECT_EQ(m.w_deeper(2), 0);
}

TEST(Metrics, ParallelBlob) {
  const DagMetrics m = ComputeMetrics(MakeParallelBlob(6));
  EXPECT_EQ(m.span, 1);
  EXPECT_EQ(m.w_deeper(0), 6);
  EXPECT_EQ(m.w_deeper(1), 0);
}

TEST(Metrics, DiamondUsesLongestPathDepth) {
  // 0 -> 1 -> 3, 0 -> 3: node 3's depth is the LONGEST path (3 nodes).
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 3}, {0, 3}, {0, 2}};
  const DagMetrics m = ComputeMetrics(MakeFromEdges(4, edges));
  EXPECT_EQ(m.depth[3], 3);
  EXPECT_EQ(m.height[0], 3);
  EXPECT_EQ(m.span, 3);
}

TEST(Metrics, TopoOrderRespectsEdges) {
  Rng rng(5);
  const Dag tree = MakeAttachmentTree(64, 0.4, rng);
  const DagMetrics m = ComputeMetrics(tree);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    for (NodeId v : tree.children(u)) {
      EXPECT_GT(m.depth[static_cast<std::size_t>(v)],
                m.depth[static_cast<std::size_t>(u)]);
      EXPECT_GT(m.height[static_cast<std::size_t>(u)],
                m.height[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Metrics, CompleteBinaryTreeProfile) {
  const DagMetrics m = ComputeMetrics(MakeCompleteTree(2, 3));  // 7 nodes
  EXPECT_EQ(m.span, 3);
  EXPECT_EQ(m.w_deeper(0), 7);
  EXPECT_EQ(m.w_deeper(1), 6);
  EXPECT_EQ(m.w_deeper(2), 4);
  EXPECT_EQ(m.w_deeper(3), 0);
}

TEST(Metrics, WDeeperToleratesOutOfRange) {
  const DagMetrics m = ComputeMetrics(MakeChain(3));
  EXPECT_EQ(m.w_deeper(-1), 3);
  EXPECT_EQ(m.w_deeper(100), 0);
}

TEST(Metrics, SpanShorthandMatches) {
  Rng rng(77);
  const Dag tree = MakeAttachmentTree(100, 0.7, rng);
  EXPECT_EQ(Span(tree), ComputeMetrics(tree).span);
}

// Property sweep: structural invariants on random trees.
class MetricsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MetricsPropertyTest, InvariantsHold) {
  const auto [seed, bias] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Dag tree = MakeAttachmentTree(200, bias, rng);
  const DagMetrics m = ComputeMetrics(tree);

  EXPECT_EQ(m.work, 200);
  EXPECT_GE(m.span, 1);
  EXPECT_LE(m.span, 200);
  // W is non-increasing in d, W(0) = work, W(span) = 0.
  EXPECT_EQ(m.w_deeper(0), m.work);
  EXPECT_EQ(m.w_deeper(m.span), 0);
  for (std::int64_t d = 1; d <= m.span; ++d) {
    // Every depth in [1, span] is inhabited (any deepest node has an
    // ancestor at each shallower depth), so W strictly decreases.
    EXPECT_LT(m.w_deeper(d), m.w_deeper(d - 1));
  }
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    // depth + height - 1 <= span, with equality on some critical path.
    EXPECT_LE(m.depth[static_cast<std::size_t>(v)] +
                  m.height[static_cast<std::size_t>(v)] - 1,
              m.span);
    // Child depth is parent depth + 1 in a tree.
    for (NodeId c : tree.children(v)) {
      EXPECT_EQ(m.depth[static_cast<std::size_t>(c)],
                m.depth[static_cast<std::size_t>(v)] + 1);
      EXPECT_GT(m.height[static_cast<std::size_t>(v)],
                m.height[static_cast<std::size_t>(c)]);
    }
  }
  // Some node realizes the span.
  bool span_realized = false;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (m.depth[static_cast<std::size_t>(v)] == m.span) span_realized = true;
  }
  EXPECT_TRUE(span_realized);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricsPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.5, 0.9)));

}  // namespace
}  // namespace otsched
