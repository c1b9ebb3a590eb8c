#include "dag/metrics.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

DagMetrics ComputeMetrics(const Dag& dag) {
  const NodeId n = dag.node_count();
  DagMetrics m;
  m.work = n;
  if (n == 0) {
    m.deeper_than.assign(1, 0);
    return m;
  }

  // Kahn's algorithm with `topo_order` as its queue.  Nothing is popped,
  // so once drained it is a topological order: every parent precedes its
  // children.
  std::vector<NodeId> indegree(static_cast<std::size_t>(n));
  std::vector<NodeId> topo_order;
  topo_order.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    indegree[static_cast<std::size_t>(v)] = dag.in_degree(v);
    if (indegree[static_cast<std::size_t>(v)] == 0) topo_order.push_back(v);
  }
  for (std::size_t head = 0; head < topo_order.size(); ++head) {
    for (NodeId c : dag.children(topo_order[head])) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) {
        topo_order.push_back(c);
      }
    }
  }
  OTSCHED_CHECK(topo_order.size() == static_cast<std::size_t>(n),
                "DAG has a cycle: topological order covers "
                    << topo_order.size() << " of " << n << " nodes");

  // Depth: forward pass in topo order.
  m.depth.assign(static_cast<std::size_t>(n), 1);
  for (NodeId v : topo_order) {
    const std::int32_t dv = m.depth[static_cast<std::size_t>(v)];
    for (NodeId c : dag.children(v)) {
      auto& dc = m.depth[static_cast<std::size_t>(c)];
      dc = std::max(dc, dv + 1);
    }
  }

  // Height: backward pass.
  m.height.assign(static_cast<std::size_t>(n), 1);
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const NodeId v = *it;
    std::int32_t best = 0;
    for (NodeId c : dag.children(v)) {
      best = std::max(best, m.height[static_cast<std::size_t>(c)]);
    }
    m.height[static_cast<std::size_t>(v)] = best + 1;
  }

  for (NodeId v = 0; v < n; ++v) {
    m.span = std::max<std::int64_t>(m.span, m.depth[static_cast<std::size_t>(v)]);
  }

  // Depth profile W(d): count per depth, then suffix-sum.
  m.deeper_than.assign(static_cast<std::size_t>(m.span) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    // A node of depth d contributes to W(0..d-1).
    ++m.deeper_than[static_cast<std::size_t>(m.depth[static_cast<std::size_t>(v)]) - 1];
  }
  for (std::int64_t d = m.span - 1; d >= 0; --d) {
    m.deeper_than[static_cast<std::size_t>(d)] +=
        m.deeper_than[static_cast<std::size_t>(d) + 1];
  }
  OTSCHED_CHECK(m.deeper_than[0] == m.work);
  OTSCHED_CHECK(m.deeper_than[static_cast<std::size_t>(m.span)] == 0);
  return m;
}

std::int64_t Span(const Dag& dag) {
  return ComputeMetrics(dag).span;
}

}  // namespace otsched
