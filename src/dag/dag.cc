#include "dag/dag.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

Dag::Builder::Builder(NodeId initial_nodes) : node_count_(initial_nodes) {
  OTSCHED_CHECK(initial_nodes >= 0);
}

NodeId Dag::Builder::add_node() {
  return node_count_++;
}

NodeId Dag::Builder::add_nodes(NodeId count) {
  OTSCHED_CHECK(count >= 0);
  const NodeId first = node_count_;
  node_count_ += count;
  return first;
}

void Dag::Builder::add_edge(NodeId from, NodeId to) {
  OTSCHED_CHECK(from >= 0 && from < node_count_, "edge source " << from);
  OTSCHED_CHECK(to >= 0 && to < node_count_, "edge target " << to);
  OTSCHED_CHECK(from != to, "self-loop at node " << from);
  edges_.emplace_back(from, to);
}

namespace {

// Builds one direction of CSR adjacency via counting sort over `edges`,
// keyed by `key` (0 = source, 1 = target).
void BuildCsr(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges,
              bool key_is_source, std::vector<std::int64_t>& offsets,
              std::vector<NodeId>& targets) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [from, to] : edges) {
    const NodeId key = key_is_source ? from : to;
    ++offsets[static_cast<std::size_t>(key) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  targets.resize(edges.size());
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [from, to] : edges) {
    const NodeId key = key_is_source ? from : to;
    const NodeId value = key_is_source ? to : from;
    targets[static_cast<std::size_t>(cursor[static_cast<std::size_t>(key)]++)] =
        value;
  }
}

}  // namespace

Dag Dag::Builder::build() && {
  Dag dag;
  if (node_count_ == 0) {
    OTSCHED_CHECK(edges_.empty());
    return dag;
  }
  BuildCsr(node_count_, edges_, /*key_is_source=*/true, dag.child_offsets_,
           dag.child_targets_);
  BuildCsr(node_count_, edges_, /*key_is_source=*/false, dag.parent_offsets_,
           dag.parent_targets_);
  return dag;
}

std::vector<NodeId> Dag::roots() const {
  std::vector<NodeId> result;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (in_degree(v) == 0) result.push_back(v);
  }
  return result;
}

std::vector<NodeId> Dag::leaves() const {
  std::vector<NodeId> result;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (out_degree(v) == 0) result.push_back(v);
  }
  return result;
}

Dag DisjointUnion(std::span<const Dag> parts, std::vector<NodeId>* offsets_out) {
  Dag::Builder builder;
  std::vector<NodeId> offsets;
  offsets.reserve(parts.size());
  for (const Dag& part : parts) {
    offsets.push_back(builder.node_count());
    builder.add_nodes(part.node_count());
  }
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const Dag& part = parts[p];
    for (NodeId v = 0; v < part.node_count(); ++v) {
      for (NodeId child : part.children(v)) {
        builder.add_edge(offsets[p] + v, offsets[p] + child);
      }
    }
  }
  if (offsets_out != nullptr) *offsets_out = std::move(offsets);
  return std::move(builder).build();
}

}  // namespace otsched
