#include "dag/builders.h"

#include <vector>

#include "common/assert.h"

namespace otsched {

Dag MakeChain(NodeId n) {
  OTSCHED_CHECK(n >= 0);
  Dag::Builder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return std::move(builder).build();
}

Dag MakeStar(NodeId width) {
  OTSCHED_CHECK(width >= 0);
  Dag::Builder builder(width + 1);
  for (NodeId c = 1; c <= width; ++c) builder.add_edge(0, c);
  return std::move(builder).build();
}

Dag MakeParallelBlob(NodeId n) {
  OTSCHED_CHECK(n >= 0);
  Dag::Builder builder(n);
  return std::move(builder).build();
}

Dag MakeCompleteTree(NodeId arity, int levels) {
  OTSCHED_CHECK(arity >= 1);
  OTSCHED_CHECK(levels >= 1);
  Dag::Builder builder;
  // Breadth-first materialization, level by level.
  std::vector<NodeId> current = {builder.add_node()};
  for (int level = 2; level <= levels; ++level) {
    std::vector<NodeId> next;
    next.reserve(current.size() * static_cast<std::size_t>(arity));
    for (NodeId parent : current) {
      for (NodeId k = 0; k < arity; ++k) {
        const NodeId child = builder.add_node();
        builder.add_edge(parent, child);
        next.push_back(child);
      }
    }
    current = std::move(next);
  }
  return std::move(builder).build();
}

Dag MakeLayeredKeyForest(std::span<const NodeId> layer_sizes,
                         std::vector<NodeId>* key_of_layer) {
  Dag::Builder builder;
  std::vector<NodeId> keys;
  NodeId previous_key = kInvalidNode;
  for (NodeId size : layer_sizes) {
    OTSCHED_CHECK(size >= 1, "each layer needs at least the key subjob");
    const NodeId first = builder.add_nodes(size);
    // By convention the key is the first node of the layer; the adversary
    // generator permutes roles itself when it needs to.
    const NodeId key = first;
    if (previous_key != kInvalidNode) {
      for (NodeId v = first; v < first + size; ++v) {
        builder.add_edge(previous_key, v);
      }
    }
    keys.push_back(key);
    previous_key = key;
  }
  if (key_of_layer != nullptr) *key_of_layer = std::move(keys);
  return std::move(builder).build();
}

Dag MakeForkJoin(NodeId width) {
  OTSCHED_CHECK(width >= 1);
  Dag::Builder builder(width + 2);
  const NodeId source = 0;
  const NodeId sink = width + 1;
  for (NodeId v = 1; v <= width; ++v) {
    builder.add_edge(source, v);
    builder.add_edge(v, sink);
  }
  return std::move(builder).build();
}

Dag MakeSpineWithBursts(NodeId spine_len, int burst_levels) {
  OTSCHED_CHECK(spine_len >= 1);
  OTSCHED_CHECK(burst_levels >= 0);
  Dag::Builder builder;
  NodeId previous = kInvalidNode;
  for (NodeId i = 0; i < spine_len; ++i) {
    const NodeId spine_node = builder.add_node();
    if (previous != kInvalidNode) builder.add_edge(previous, spine_node);
    previous = spine_node;
    // Attach a complete binary burst under the spine node.
    std::vector<NodeId> current = {spine_node};
    for (int level = 1; level <= burst_levels; ++level) {
      std::vector<NodeId> next;
      for (NodeId parent : current) {
        for (int k = 0; k < 2; ++k) {
          const NodeId child = builder.add_node();
          builder.add_edge(parent, child);
          next.push_back(child);
        }
      }
      current = std::move(next);
    }
  }
  return std::move(builder).build();
}

Dag MakeFromEdges(NodeId n,
                  std::span<const std::pair<NodeId, NodeId>> edges) {
  Dag::Builder builder(n);
  for (const auto& [from, to] : edges) builder.add_edge(from, to);
  return std::move(builder).build();
}

Dag ReverseDag(const Dag& dag) {
  Dag::Builder builder(dag.node_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (NodeId c : dag.children(v)) builder.add_edge(c, v);
  }
  return std::move(builder).build();
}

}  // namespace otsched
