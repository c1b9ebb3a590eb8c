#include "sim/ready_state.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

namespace {

/// Copies bit range [base, end) from `src` into `dst`, leaving every
/// other bit of the shared words untouched (neighbouring job regions
/// share boundary words of the arena bitsets).
void CopyRegionBits(std::vector<std::uint64_t>& dst,
                    const std::vector<std::uint64_t>& src, std::int64_t base,
                    std::int64_t end) {
  if (base >= end) return;
  const std::int64_t w0 = base >> 6;
  const std::int64_t w1 = (end - 1) >> 6;
  for (std::int64_t w = w0; w <= w1; ++w) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == w0) mask &= ~std::uint64_t{0} << (base & 63);
    if (w == w1 && (end & 63) != 0) {
      mask &= (std::uint64_t{1} << (end & 63)) - 1;
    }
    dst[static_cast<std::size_t>(w)] =
        (dst[static_cast<std::size_t>(w)] & ~mask) |
        (src[static_cast<std::size_t>(w)] & mask);
  }
}

}  // namespace

void PendingCounters::init(const Dag& dag) {
  const NodeId n = dag.node_count();
  counts_.assign(static_cast<std::size_t>(n), 0);
  roots_.clear();
  for (NodeId v = 0; v < n; ++v) {
    counts_[static_cast<std::size_t>(v)] = dag.in_degree(v);
    if (counts_[static_cast<std::size_t>(v)] == 0) roots_.push_back(v);
  }
}

void ReadyArena::reserve(std::size_t jobs, std::int64_t nodes) {
  const std::size_t j = off_.size() + jobs;
  const std::size_t n = static_cast<std::size_t>(total_nodes_ + nodes);
  off_.reserve(j);
  nodes_.reserve(j);
  shown_.reserve(j);
  ready_len_.reserve(j);
  done_.reserve(j);
  pending_.reserve(n);
  pos_.reserve(n);
  ready_.reserve(n);
  executed_.reserve((n + 63) / 64);
  if (commit_tracking_) {
    committed_.reserve((n + 63) / 64);
    committed_done_.reserve(j);
  }
}

JobId ReadyArena::append(const Dag& dag, NodeId shown) {
  const std::int32_t n = dag.node_count();
  std::int64_t base = -1;
  // First fit over the (sorted, coalesced) free list; a larger region is
  // split and its tail stays available.
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].size >= n) {
      base = free_[i].base;
      if (free_[i].size > n) {
        free_[i].base += n;
        free_[i].size -= n;
      } else {
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
  }
  if (base < 0) {
    // Grown words are zero, and no bit past the old end was ever set.
    base = total_nodes_;
    total_nodes_ += n;
    const std::size_t words =
        static_cast<std::size_t>((total_nodes_ + 63) / 64);
    pending_.resize(static_cast<std::size_t>(total_nodes_));
    pos_.resize(static_cast<std::size_t>(total_nodes_));
    ready_.resize(static_cast<std::size_t>(total_nodes_));
    executed_.resize(words, 0);
    if (commit_tracking_) committed_.resize(words, 0);
  } else {
    // A recycled region still holds its retired job's bits.
    for (std::int64_t nv = base; nv < base + n; ++nv) {
      const std::size_t w = static_cast<std::size_t>(nv >> 6);
      const std::uint64_t keep = ~(std::uint64_t{1} << (nv & 63));
      executed_[w] &= keep;
      if (commit_tracking_) committed_[w] &= keep;
    }
  }
  // (Re)initialize the region: in-degrees (plus the hold), no ready
  // positions.
  std::int32_t* pending = pending_.data() + base;
  NodeId* pos = pos_.data() + base;
  for (NodeId v = 0; v < n; ++v) {
    pending[static_cast<std::size_t>(v)] =
        dag.in_degree(v) + (v >= shown ? 1 : 0);
    pos[static_cast<std::size_t>(v)] = kInvalidNode;
  }
  if (commit_tracking_) committed_done_.push_back(0);

  const JobId j = static_cast<JobId>(off_.size());
  off_.push_back(base);
  nodes_.push_back(n);
  shown_.push_back(shown);
  ready_len_.push_back(0);
  done_.push_back(0);
  return j;
}

void ReadyArena::retire(JobId j) {
  const std::size_t i = static_cast<std::size_t>(j);
  OTSCHED_CHECK(i < off_.size(), "retire of unknown job " << j);
  OTSCHED_CHECK(done_[i] == nodes_[i],
                "retire of unfinished job " << j << " (" << done_[i] << "/"
                                            << nodes_[i] << " executed)");
  OTSCHED_DCHECK(ready_len_[i] == 0);
  // Under commit tracking a finished job must have been finish-committed
  // before its region is recycled (finished jobs are never rolled back).
  OTSCHED_DCHECK(!commit_tracking_ || committed_done_[i] == done_[i]);
  FreeRegion region{off_[i], nodes_[i]};
  if (region.size == 0) return;
  // Sorted insert + coalesce with both neighbours, so back-to-back
  // retirements of adjacent jobs merge into one reusable region.
  const auto at = std::lower_bound(
      free_.begin(), free_.end(), region.base,
      [](const FreeRegion& r, std::int64_t b) { return r.base < b; });
  const std::size_t idx =
      static_cast<std::size_t>(at - free_.begin());
  free_.insert(at, region);
  if (idx + 1 < free_.size() &&
      free_[idx].base + free_[idx].size == free_[idx + 1].base) {
    free_[idx].size += free_[idx + 1].size;
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(idx) + 1);
  }
  if (idx > 0 &&
      free_[idx - 1].base + free_[idx - 1].size == free_[idx].base) {
    free_[idx - 1].size += free_[idx].size;
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

std::int32_t ReadyArena::activate(JobId j) {
  const std::size_t i = static_cast<std::size_t>(j);
  NodeId* ready = ready_.data() + off_[i];
  NodeId* pos = pos_.data() + off_[i];
  std::int32_t& len = ready_len_[i];
  OTSCHED_DCHECK(len == 0);
  // The still-initial pending counters: a node with none is a root (a
  // held node never is), in increasing node id.
  const std::int32_t* pending = pending_.data() + off_[i];
  for (NodeId v = 0; v < shown_[i]; ++v) {
    if (pending[static_cast<std::size_t>(v)] == 0) {
      pos[static_cast<std::size_t>(v)] = static_cast<NodeId>(len);
      ready[static_cast<std::size_t>(len)] = v;
      ++len;
    }
  }
  return len;
}

std::int32_t ReadyArena::reveal(JobId j, NodeId count) {
  const std::size_t i = static_cast<std::size_t>(j);
  const NodeId first = shown_[i];
  OTSCHED_DCHECK(count >= 0 && first + count <= nodes_[i]);
  shown_[i] += count;
  std::int32_t* pending = pending_.data() + off_[i];
  NodeId* ready = ready_.data() + off_[i];
  NodeId* pos = pos_.data() + off_[i];
  std::int32_t& len = ready_len_[i];
  const std::int32_t before = len;
  for (NodeId v = first; v < first + count; ++v) {
    if (--pending[static_cast<std::size_t>(v)] > 0) continue;
    pos[static_cast<std::size_t>(v)] = static_cast<NodeId>(len);
    ready[static_cast<std::size_t>(len)] = v;
    ++len;
  }
  return len - before;
}

void ReadyArena::enable_commit_tracking() {
  if (commit_tracking_) return;
  commit_tracking_ = true;
  committed_.assign(executed_.size(), 0);
  committed_done_.assign(done_.size(), 0);
}

std::int64_t ReadyArena::checkpoint(JobId j) {
  OTSCHED_DCHECK(commit_tracking_);
  const std::size_t i = static_cast<std::size_t>(j);
  const std::int64_t delta = done_[i] - committed_done_[i];
  if (delta == 0) return 0;
  CopyRegionBits(committed_, executed_, off_[i], off_[i] + nodes_[i]);
  committed_done_[i] = done_[i];
  return delta;
}

std::int64_t ReadyArena::rollback_to_checkpoint(const Dag& dag, JobId j) {
  OTSCHED_DCHECK(commit_tracking_);
  const std::size_t i = static_cast<std::size_t>(j);
  const std::int64_t wasted = done_[i] - committed_done_[i];
  if (wasted == 0) return 0;
  const std::int64_t base = off_[i];
  const std::int32_t n = nodes_[i];
  CopyRegionBits(executed_, committed_, base, base + n);
  // Rebuild pending counts and the ready region from the restored
  // executed set, in increasing node id (the rollback determinism
  // contract in the header).  Committed sets are prefix-closed (they
  // snapshot a legal execution), so every restored node has all parents
  // restored and a zeroed pending count is consistent.
  std::int32_t* pending = pending_.data() + base;
  NodeId* ready = ready_.data() + base;
  NodeId* pos = pos_.data() + base;
  std::int32_t len = 0;
  for (NodeId v = 0; v < n; ++v) {
    pos[static_cast<std::size_t>(v)] = kInvalidNode;
    if (is_executed(j, v)) {
      pending[static_cast<std::size_t>(v)] = 0;
      continue;
    }
    std::int32_t p = 0;
    for (const NodeId u : dag.parents(v)) {
      if (!is_executed(j, u)) ++p;
    }
    pending[static_cast<std::size_t>(v)] = p;
    if (p == 0) {
      pos[static_cast<std::size_t>(v)] = static_cast<NodeId>(len);
      ready[static_cast<std::size_t>(len)] = v;
      ++len;
    }
  }
  ready_len_[i] = len;
  done_[i] = committed_done_[i];
  return wasted;
}

}  // namespace otsched
