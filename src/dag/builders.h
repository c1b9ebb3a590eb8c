// Deterministic structural DAG builders.
//
// These cover the canonical job shapes the paper reasons about: chains
// (sequential jobs), stars / fully-parallel blobs, complete k-ary out-trees,
// the layered key/non-key out-forests of the Section 4 lower bound, fork-join
// diamonds, and series-parallel composition (the model of Cilk-style
// programs from the introduction).  Randomized generators live in src/gen.
#pragma once

#include <span>

#include "dag/dag.h"

namespace otsched {

/// A path of n nodes: 0 -> 1 -> ... -> n-1.  Span = n.
Dag MakeChain(NodeId n);

/// One root with `width` leaf children.  Work = width + 1, span = 2.
/// width = 0 yields a single node.
Dag MakeStar(NodeId width);

/// `n` independent nodes (a fully parallelizable job).  Span = 1 for n > 0.
Dag MakeParallelBlob(NodeId n);

/// Complete `arity`-ary out-tree with `levels` levels (levels >= 1; a
/// single root when levels == 1).  Work = (arity^levels - 1)/(arity - 1).
Dag MakeCompleteTree(NodeId arity, int levels);

/// The Section 4 layered shape: layer sizes are given; each layer has one
/// *key* node that is the parent of every node of the next layer; non-key
/// nodes are leaves.  Layer 1 nodes are all roots (so this is an out-forest
/// whose only deep tree is the key spine).  Key of layer L is node
/// `key_of_layer[L]` in the returned mapping if requested.
Dag MakeLayeredKeyForest(std::span<const NodeId> layer_sizes,
                         std::vector<NodeId>* key_of_layer = nullptr);

/// Fork-join diamond: source -> `width` parallel nodes -> sink.  This is a
/// series-parallel DAG, NOT an out-tree (sink has in-degree = width).
Dag MakeForkJoin(NodeId width);

/// An out-tree shaped like a divide-and-conquer with a tail-recursive
/// spine: a spine of `spine_len` nodes, where spine node i additionally
/// spawns a complete binary subtree of `burst_levels` levels.  This is the
/// "sequence of parallel-for loops" motif from the introduction, expressed
/// as a single out-tree.
Dag MakeSpineWithBursts(NodeId spine_len, int burst_levels);

/// Builds a DAG from an explicit edge list over `n` nodes (test helper).
Dag MakeFromEdges(NodeId n,
                  std::span<const std::pair<NodeId, NodeId>> edges);

/// Reverses every edge.  Turns an out-forest into an in-forest (the
/// class Hu's 1961 algorithm — LPF — is optimal for; see the paper's
/// related-work discussion) and vice versa.
Dag ReverseDag(const Dag& dag);

}  // namespace otsched
