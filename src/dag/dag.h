// Immutable DAG-of-subjobs representation (Section 3 of the paper).
//
// A job is a DAG G = (V, E) whose vertices are unit-time subjobs and whose
// edge (u, v) means u must complete strictly before v starts.  The class is
// storage only: metrics (work, span, heights, depths) live in metrics.h and
// structural checks in validate.h.
//
// Storage is CSR-style (two offset/target arrays, one for children and one
// for parents): a job with a million subjobs costs four flat vectors and no
// per-node allocation, which matters because the Theorem 4.2 sweeps build
// tens of thousands of jobs.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace otsched {

class Dag {
 public:
  /// Incremental construction; `build()` freezes into CSR form.
  /// The builder does NOT check acyclicity (generators guarantee it by
  /// construction); use IsAcyclic from validate.h when reading untrusted
  /// input.
  class Builder {
   public:
    Builder() = default;
    explicit Builder(NodeId initial_nodes);

    /// Adds one subjob; returns its id (dense, starting from 0).
    NodeId add_node();

    /// Adds `count` subjobs; returns the id of the first.
    NodeId add_nodes(NodeId count);

    /// Adds the precedence edge from -> to.  Both ids must already exist.
    void add_edge(NodeId from, NodeId to);

    NodeId node_count() const { return node_count_; }

    Dag build() &&;

   private:
    NodeId node_count_ = 0;
    std::vector<std::pair<NodeId, NodeId>> edges_;
  };

  Dag() = default;

  NodeId node_count() const { return static_cast<NodeId>(child_offsets_.empty() ? 0 : child_offsets_.size() - 1); }
  std::int64_t edge_count() const { return static_cast<std::int64_t>(child_targets_.size()); }
  bool empty() const { return node_count() == 0; }

  std::span<const NodeId> children(NodeId v) const {
    return span_of(child_offsets_, child_targets_, v);
  }
  std::span<const NodeId> parents(NodeId v) const {
    return span_of(parent_offsets_, parent_targets_, v);
  }

  NodeId out_degree(NodeId v) const {
    return static_cast<NodeId>(children(v).size());
  }
  NodeId in_degree(NodeId v) const {
    return static_cast<NodeId>(parents(v).size());
  }

  /// All nodes with in-degree zero, in id order.
  std::vector<NodeId> roots() const;
  /// All nodes with out-degree zero, in id order.
  std::vector<NodeId> leaves() const;

 private:
  friend class Builder;

  // Inline: the engines relax children(v) once per executed subjob.
  std::span<const NodeId> span_of(const std::vector<std::int64_t>& offsets,
                                  const std::vector<NodeId>& targets,
                                  NodeId v) const {
    OTSCHED_DCHECK(v >= 0 && v < node_count(),
                   "node " << v << " out of range");
    const auto begin = offsets[static_cast<std::size_t>(v)];
    const auto end = offsets[static_cast<std::size_t>(v) + 1];
    return {targets.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  // CSR adjacency.  offsets has node_count()+1 entries (or is empty for the
  // empty DAG).
  std::vector<std::int64_t> child_offsets_;
  std::vector<NodeId> child_targets_;
  std::vector<std::int64_t> parent_offsets_;
  std::vector<NodeId> parent_targets_;
};

/// Disjoint union: relabels each input DAG's nodes into one id space, in
/// input order.  Returns the combined DAG and, via `offsets_out` (optional),
/// the id offset applied to each input.
Dag DisjointUnion(std::span<const Dag> parts,
                  std::vector<NodeId>* offsets_out = nullptr);

}  // namespace otsched
