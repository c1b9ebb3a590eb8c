// Incremental ready-set bookkeeping shared by every simulation loop.
//
// The paper's model advances in unit slots; the only state a simulator
// must maintain per job is "which subjobs are ready".  Rebuilding that
// set by rescanning the DAG makes a run O(|V| * horizon); maintaining it
// as deltas makes the whole run O(|V| + |E|) bookkeeping total — each
// edge is relaxed exactly once, when its source executes.  This header
// packages that delta maintenance so SimDriver (sim/driver.h, which also
// runs the adaptive adversary) and the LPF builder and MC replayer
// (src/core) share one audited implementation.
//
// Determinism contract (relied on by the golden equivalence tests and by
// every seeded experiment): the ready sequence is a pure function of the
// DAG and the execution order —
//   * on activation, roots enter the ready list in increasing node id;
//   * execute(v) removes v by swap-erase (the LAST ready node takes v's
//     position), then appends newly-enabled children in dag.children(v)
//     order;
// i.e. exactly the order the seed engine produced, bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/dag.h"

namespace otsched {

/// Clamps a fault model's requested per-slot capacity into the only legal
/// range, [0, m]: budgets can starve a slot entirely but never exceed the
/// machine (the Lemma 5.5 setting, m_t <= m).  Shared by both engines and
/// the BudgetTrace/BudgetSequencer machinery in sim/faults.h so every
/// consumer clamps identically.
inline int ClampSlotCapacity(int requested, int m) {
  if (requested < 0) return 0;
  if (requested > m) return m;
  return requested;
}

/// Pending-predecessor counters over one DAG: counts[v] = predecessors of
/// v that have not yet completed.  `complete(v)` relaxes v's out-edges
/// and hands every child whose count reaches zero to a sink, in
/// dag.children(v) order.
class PendingCounters {
 public:
  /// Resets to the in-degrees of `dag`; roots() lists the zero-indegree
  /// nodes in increasing id order.
  void init(const Dag& dag);

  std::span<const NodeId> roots() const { return roots_; }

  bool cleared(NodeId v) const {
    return counts_[static_cast<std::size_t>(v)] == 0;
  }

  /// Decrements every child of `v`; calls sink(child) for each child
  /// whose pending count reaches zero, in dag.children(v) order.
  template <typename Sink>
  void complete(const Dag& dag, NodeId v, Sink&& sink) {
    for (NodeId c : dag.children(v)) {
      if (--counts_[static_cast<std::size_t>(c)] == 0) sink(c);
    }
  }

 private:
  std::vector<std::int32_t> counts_;
  std::vector<NodeId> roots_;
};

/// Struct-of-arrays ready/executed state over ALL jobs of a run — the
/// engine's hot data, laid out as a handful of flat arrays instead of
/// per-job heap objects (the former JobReadyState owned 4-5 vectors PER
/// JOB; the arena owns ~9 vectors PER RUN regardless of job count).
/// Per-job regions are slices of node-indexed arrays: job j's nodes
/// occupy [off(j), off(j) + nodes(j)), its ready list lives in the same
/// region of `ready_` (a job can never have more ready nodes than nodes),
/// and the executed flags are one shared bitset.  All queries the
/// EngineBackend contract needs are O(1); execute() additionally returns
/// the ready-width delta so the engine can maintain the total ready
/// width as a counter instead of the O(alive) sweep observers used to
/// pay.
///
/// The determinism contract above holds per job region exactly as it did
/// for the per-job vectors: same roots order, same swap-erase, same
/// children order — the engine-equivalence gate proves it bit-for-bit.
/// Jobs enter one at a time through append(); activation scans the
/// job's pending counters (roots in increasing node id).  Finished jobs
/// may be retire()d, which recycles their node region through a
/// coalescing free list so an unbounded submission stream runs in memory
/// proportional to the LIVE node count plus O(1) per job ever seen (the
/// per-job base/len/done entries are never reclaimed — job ids are
/// stable for the arena's lifetime).
class ReadyArena {
 public:
  /// Capacity hint: room for `jobs` more jobs totalling `nodes` more
  /// nodes, so that many append()s never reallocate.
  void reserve(std::size_t jobs, std::int64_t nodes);

  /// Adds one job after construction, reusing a retired region when one
  /// is large enough (first-fit with splitting) and growing the node
  /// arrays otherwise.  Returns the new job's id (== job_count() - 1).
  /// Nodes with id >= `shown` are HELD: they carry one extra pending
  /// count, so neither activation nor their parents' execution can make
  /// them ready until reveal() drops it.  Growing may reallocate the raw
  /// tables below — re-publish any cached pointers after calling this.
  JobId append(const Dag& dag, NodeId shown);

  /// Job j's first held node (its node count when none is held).
  NodeId shown(JobId j) const {
    return shown_[static_cast<std::size_t>(j)];
  }

  /// Drops the extra pending count of j's next `count` held nodes, from
  /// shown(j) on; each node whose count reaches zero is appended to j's
  /// ready region, in increasing id.  Returns the ready-width delta.
  std::int32_t reveal(JobId j, NodeId count);

  /// Recycles job j's node region (j must be finished: every node
  /// executed, ready list empty).  Per-job queries done()/is-finished
  /// remain valid; per-NODE queries (ready/is_ready/is_executed) for j
  /// are meaningless once the region is reused.  Never reallocates.
  void retire(JobId j);

  std::size_t job_count() const { return off_.size(); }

  /// Job j's node count (its total work).
  std::int32_t nodes(JobId j) const {
    return nodes_[static_cast<std::size_t>(j)];
  }

  /// Node slots currently backing the arena (live + free-listed).  The
  /// retire-on-finish memory bound is asserted against this: it tracks
  /// the peak LIVE width of the stream, not the cumulative submissions.
  std::int64_t node_capacity() const { return total_nodes_; }

  /// Publishes job j's roots into its ready region (arrival), in
  /// increasing node id.  Call once per job; returns the root count (the
  /// job's initial ready width).
  std::int32_t activate(JobId j);

  /// Marks node `v` of job `j` executed: swap-erases it from the ready
  /// region and enqueues children whose last pending predecessor was
  /// `v`, in dag.children(v) order.  Returns the ready-width delta
  /// (children enabled minus one).
  std::int32_t execute(const Dag& dag, JobId j, NodeId v) {
    const std::int64_t base = off_[static_cast<std::size_t>(j)];
    const std::int64_t nv = base + v;
    executed_[static_cast<std::size_t>(nv >> 6)] |=
        std::uint64_t{1} << (nv & 63);
    ++done_[static_cast<std::size_t>(j)];
    NodeId* ready = ready_.data() + base;
    NodeId* pos = pos_.data() + base;
    std::int32_t& len = ready_len_[static_cast<std::size_t>(j)];
    const NodeId p = pos[static_cast<std::size_t>(v)];
    const NodeId moved = ready[static_cast<std::size_t>(len - 1)];
    ready[static_cast<std::size_t>(p)] = moved;
    pos[static_cast<std::size_t>(moved)] = p;
    --len;
    pos[static_cast<std::size_t>(v)] = kInvalidNode;
    std::int32_t delta = -1;
    std::int32_t* pending = pending_.data() + base;
    for (NodeId c : dag.children(v)) {
      if (--pending[static_cast<std::size_t>(c)] == 0) {
        pos[static_cast<std::size_t>(c)] = static_cast<NodeId>(len);
        ready[static_cast<std::size_t>(len)] = c;
        ++len;
        ++delta;
      }
    }
    return delta;
  }

  std::span<const NodeId> ready(JobId j) const {
    return {ready_.data() + off_[static_cast<std::size_t>(j)],
            static_cast<std::size_t>(ready_len_[static_cast<std::size_t>(j)])};
  }
  bool is_ready(JobId j, NodeId v) const {
    return pos_[static_cast<std::size_t>(off_[static_cast<std::size_t>(j)] +
                                         v)] != kInvalidNode;
  }
  bool is_executed(JobId j, NodeId v) const {
    const std::int64_t nv = off_[static_cast<std::size_t>(j)] + v;
    return (executed_[static_cast<std::size_t>(nv >> 6)] >> (nv & 63)) & 1;
  }

  /// Number of executed subjobs of job j.
  std::int64_t done(JobId j) const {
    return done_[static_cast<std::size_t>(j)];
  }

  // ---- commit frontier (job faults; sim/job_faults.h) ----
  //
  // With commit tracking enabled the arena splits each job's progress
  // into a checkpoint-committed region (survives crashes) and a volatile
  // region (everything executed since the last checkpoint()).  A crashed
  // job rolls back to its committed snapshot; the volatile work is lost
  // and re-enqueued.  Disabled (the default) the extra arrays stay empty
  // and execute() is untouched — the no-lost-work-when-healthy contract
  // that keeps healthy runs bit-identical to the pre-refactor engine.
  //
  // Rollback determinism contract (mirrored by ReferenceSimulate):
  // rollback_to_checkpoint rebuilds the job's ready region in
  // INCREASING NODE ID over the restored frontier (every uncommitted
  // node whose parents are all committed) — the same canonical order
  // activation uses, independent of the lost execution history.

  /// Turns on commit tracking.  Call before the run executes anything;
  /// safe before or after append() (later appends keep tracking).
  void enable_commit_tracking();
  bool commit_tracking() const { return commit_tracking_; }

  /// Number of checkpoint-committed subjobs of job j (<= done(j)).
  std::int64_t committed_done(JobId j) const {
    return committed_done_[static_cast<std::size_t>(j)];
  }

  /// Commits job j's entire executed set (checkpoint or implicit
  /// finish-commit).  Returns the newly committed count
  /// (done(j) - the previous committed_done(j)).
  std::int64_t checkpoint(JobId j);

  /// Rolls job j back to its last checkpoint: restores the executed
  /// bits from the committed snapshot, recomputes pending counts,
  /// rebuilds the ready region in increasing node id, and rewinds
  /// done(j) to committed_done(j).  Returns the wasted subjob count
  /// (the volatile work lost).  The caller re-reads ready(j).size() to
  /// maintain any aggregate ready-width counter.
  std::int64_t rollback_to_checkpoint(const Dag& dag, JobId j);

  // Raw tables for the devirtualized scheduler fast path
  // (EngineHotState in sim/engine.h).  append() may reallocate them;
  // nothing else does.
  const NodeId* ready_storage() const { return ready_.data(); }
  const std::int64_t* node_offsets() const { return off_.data(); }
  const std::int32_t* node_counts() const { return nodes_.data(); }
  const std::int32_t* ready_lengths() const { return ready_len_.data(); }
  const std::int64_t* done_counts() const { return done_.data(); }

 private:
  /// A retired node region awaiting reuse, kept sorted by base and
  /// coalesced with adjacent entries on insert.
  struct FreeRegion {
    std::int64_t base = 0;
    std::int64_t size = 0;
  };

  std::vector<std::int64_t> off_;        // job -> base node index
  std::vector<std::int32_t> nodes_;      // job -> region size (node count)
  std::vector<std::int32_t> pending_;    // pending predecessors per node
  std::vector<NodeId> pos_;              // node -> index in its ready region
  std::vector<std::uint64_t> executed_;  // bitset over all nodes
  std::vector<NodeId> ready_;            // per-job CSR ready regions
  std::vector<std::int32_t> ready_len_;  // per-job ready count
  std::vector<std::int64_t> done_;       // per-job executed count
  std::vector<NodeId> shown_;            // per-job first held node
  std::vector<FreeRegion> free_;         // retired regions, sorted by base
  std::int64_t total_nodes_ = 0;         // node slots backing the arena

  // Commit frontier (empty unless enable_commit_tracking() was called).
  bool commit_tracking_ = false;
  std::vector<std::uint64_t> committed_;      // committed bitset, as executed_
  std::vector<std::int64_t> committed_done_;  // per-job committed count
};

}  // namespace otsched
