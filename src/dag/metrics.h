// Structural quantities of a job DAG used throughout the paper:
//
//   work  W     — number of subjobs (Section 3),
//   span  P     — number of nodes on the longest directed path (Section 3),
//   height H(j) — nodes on the longest path from j to a leaf; leaves have
//                 height 1 (Section 5, used by Longest Path First),
//   depth  D(j) — nodes on the path from a root to j; roots have depth 1
//                 (Section 5; unique for out-forests, longest-path for
//                 general DAGs),
//   W(d)        — number of subjobs with depth strictly greater than d
//                 (Section 5, the depth profile behind Lemma 5.1 and
//                 Corollary 5.4).
#pragma once

#include <cstdint>
#include <vector>

#include "dag/dag.h"

namespace otsched {

struct DagMetrics {
  std::int64_t work = 0;
  std::int64_t span = 0;

  /// height[v] in [1, span]; leaf = 1.
  std::vector<std::int32_t> height;

  /// depth[v] in [1, span]; root = 1.  For general DAGs this is the
  /// longest-path depth, which is the scheduling-relevant one (a node at
  /// longest-path depth d cannot run before slot d).
  std::vector<std::int32_t> depth;

  /// deeper_than[d] = W(d) = #nodes with depth > d, for d in [0, span].
  /// deeper_than[0] == work and deeper_than[span] == 0.
  std::vector<std::int64_t> deeper_than;

  /// W(d), tolerant of out-of-range d (W(d) = 0 for d >= span).
  std::int64_t w_deeper(std::int64_t d) const {
    if (d < 0) d = 0;
    if (d >= span) return 0;
    return deeper_than[static_cast<std::size_t>(d)];
  }
};

/// Computes all metrics in O(V + E).  Aborts if the DAG has a cycle (a
/// topological order cannot be completed).
DagMetrics ComputeMetrics(const Dag& dag);

/// Work of the whole DAG (= node_count), provided for readability.
inline std::int64_t Work(const Dag& dag) { return dag.node_count(); }

/// Span only (cheaper call-site spelling; still O(V + E)).
std::int64_t Span(const Dag& dag);

}  // namespace otsched
