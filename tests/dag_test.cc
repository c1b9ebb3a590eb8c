// Tests for dag/dag.h (storage + disjoint union) and dag/builders.h.
#include <gtest/gtest.h>

#include <algorithm>

#include "dag/builders.h"
#include "dag/dag.h"

namespace otsched {
namespace {

TEST(DagBuilder, EmptyDag) {
  Dag dag = Dag::Builder().build();
  EXPECT_EQ(dag.node_count(), 0);
  EXPECT_EQ(dag.edge_count(), 0);
  EXPECT_TRUE(dag.empty());
  EXPECT_TRUE(dag.roots().empty());
}

TEST(DagBuilder, SingleNode) {
  Dag::Builder builder;
  EXPECT_EQ(builder.add_node(), 0);
  Dag dag = std::move(builder).build();
  EXPECT_EQ(dag.node_count(), 1);
  EXPECT_EQ(dag.in_degree(0), 0);
  EXPECT_EQ(dag.out_degree(0), 0);
  EXPECT_EQ(dag.roots(), std::vector<NodeId>{0});
  EXPECT_EQ(dag.leaves(), std::vector<NodeId>{0});
}

TEST(DagBuilder, AdjacencyIsConsistentBothDirections) {
  Dag::Builder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(2, 3);
  Dag dag = std::move(builder).build();

  EXPECT_EQ(dag.out_degree(0), 2);
  EXPECT_EQ(dag.in_degree(3), 2);
  auto children0 = dag.children(0);
  EXPECT_TRUE(std::find(children0.begin(), children0.end(), 1) !=
              children0.end());
  EXPECT_TRUE(std::find(children0.begin(), children0.end(), 2) !=
              children0.end());
  auto parents3 = dag.parents(3);
  EXPECT_EQ(parents3.size(), 2u);
  // Every edge appears once in each direction.
  std::int64_t forward = 0;
  std::int64_t backward = 0;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    forward += dag.out_degree(v);
    backward += dag.in_degree(v);
  }
  EXPECT_EQ(forward, dag.edge_count());
  EXPECT_EQ(backward, dag.edge_count());
}

TEST(DagBuilder, AddNodesBulk) {
  Dag::Builder builder;
  EXPECT_EQ(builder.add_nodes(5), 0);
  EXPECT_EQ(builder.add_nodes(3), 5);
  EXPECT_EQ(builder.node_count(), 8);
}

TEST(DisjointUnion, CombinesAndOffsets) {
  std::vector<Dag> parts;
  parts.push_back(MakeChain(3));
  parts.push_back(MakeStar(2));
  std::vector<NodeId> offsets;
  Dag merged = DisjointUnion(parts, &offsets);
  EXPECT_EQ(merged.node_count(), 6);
  EXPECT_EQ(merged.edge_count(), 4);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[1], 3);
  // Chain edges live at 0->1->2; star root 3 -> {4, 5}.
  EXPECT_EQ(merged.out_degree(3), 2);
  EXPECT_EQ(merged.in_degree(0), 0);
  EXPECT_EQ(merged.in_degree(4), 1);
}

TEST(DisjointUnion, EmptyList) {
  Dag merged = DisjointUnion({});
  EXPECT_TRUE(merged.empty());
}

TEST(Builders, Chain) {
  Dag chain = MakeChain(5);
  EXPECT_EQ(chain.node_count(), 5);
  EXPECT_EQ(chain.edge_count(), 4);
  for (NodeId v = 0; v + 1 < 5; ++v) {
    ASSERT_EQ(chain.out_degree(v), 1);
    EXPECT_EQ(chain.children(v)[0], v + 1);
  }
  EXPECT_EQ(chain.out_degree(4), 0);
}

TEST(Builders, ChainOfOneAndZero) {
  EXPECT_EQ(MakeChain(1).node_count(), 1);
  EXPECT_EQ(MakeChain(0).node_count(), 0);
}

TEST(Builders, Star) {
  Dag star = MakeStar(4);
  EXPECT_EQ(star.node_count(), 5);
  EXPECT_EQ(star.out_degree(0), 4);
  for (NodeId v = 1; v <= 4; ++v) {
    EXPECT_EQ(star.in_degree(v), 1);
    EXPECT_EQ(star.out_degree(v), 0);
  }
}

TEST(Builders, ParallelBlobHasNoEdges) {
  Dag blob = MakeParallelBlob(7);
  EXPECT_EQ(blob.node_count(), 7);
  EXPECT_EQ(blob.edge_count(), 0);
  EXPECT_EQ(blob.roots().size(), 7u);
}

TEST(Builders, CompleteBinaryTree) {
  Dag tree = MakeCompleteTree(2, 4);  // 1 + 2 + 4 + 8
  EXPECT_EQ(tree.node_count(), 15);
  EXPECT_EQ(tree.roots().size(), 1u);
  EXPECT_EQ(tree.leaves().size(), 8u);
}

TEST(Builders, CompleteUnaryTreeIsChain) {
  Dag tree = MakeCompleteTree(1, 6);
  EXPECT_EQ(tree.node_count(), 6);
  EXPECT_EQ(tree.leaves().size(), 1u);
}

TEST(Builders, LayeredKeyForestShape) {
  const std::vector<NodeId> sizes = {3, 2, 4};
  std::vector<NodeId> keys;
  Dag forest = MakeLayeredKeyForest(sizes, &keys);
  EXPECT_EQ(forest.node_count(), 9);
  ASSERT_EQ(keys.size(), 3u);
  // Layer-1 nodes are all roots.
  EXPECT_EQ(forest.in_degree(keys[0]), 0);
  // Every layer-2 node is a child of key 1.
  EXPECT_EQ(forest.out_degree(keys[0]), 2);
  // Key 2's children form layer 3.
  EXPECT_EQ(forest.out_degree(keys[1]), 4);
  // The final key has no children.
  EXPECT_EQ(forest.out_degree(keys[2]), 0);
  // Non-key layer members are leaves.
  std::int64_t leaf_count = forest.leaves().size();
  // Layer 1 non-keys (2) + layer 2 non-keys (1) + all of layer 3 (4).
  EXPECT_EQ(leaf_count, 7);
}

TEST(Builders, ForkJoinIsNotATree) {
  Dag diamond = MakeForkJoin(3);
  EXPECT_EQ(diamond.node_count(), 5);
  EXPECT_EQ(diamond.in_degree(4), 3);  // the sink
}

TEST(Builders, SpineWithBursts) {
  Dag dag = MakeSpineWithBursts(3, 1);  // spine of 3, each spawning 2 leaves
  EXPECT_EQ(dag.node_count(), 9);
  EXPECT_EQ(dag.roots().size(), 1u);
}

TEST(Builders, FromEdges) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}};
  Dag dag = MakeFromEdges(3, edges);
  EXPECT_EQ(dag.edge_count(), 2);
  EXPECT_EQ(dag.children(1)[0], 2);
}

}  // namespace
}  // namespace otsched
