#include "core/most_children.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

MostChildrenReplayer::MostChildrenReplayer(const Dag& dag,
                                           const Schedule& schedule)
    : dag_(dag), remaining_(dag.node_count()) {
  const NodeId n = dag.node_count();
  executed_.assign(static_cast<std::size_t>(n), 0);
  pending_.init(dag);
  next_level_children_.assign(static_cast<std::size_t>(n), 0);

  std::vector<Time> slot_of(static_cast<std::size_t>(n), kNoTime);
  nodes_.reserve(static_cast<std::size_t>(schedule.total_placed()));
  levels_.reserve(static_cast<std::size_t>(schedule.horizon()));
  for (Time s = 1; s <= schedule.horizon(); ++s) {
    const std::size_t begin = nodes_.size();
    for (const SubjobRef& ref : schedule.at(s)) {
      OTSCHED_CHECK(ref.job == 0 && ref.node >= 0 && ref.node < n,
                    "MC input schedule runs a subjob of no node of the DAG");
      slot_of[static_cast<std::size_t>(ref.node)] = s;
      nodes_.push_back(ref.node);
    }
    levels_.push_back(Range{begin, nodes_.size()});
  }

  // Static priority: children of v scheduled exactly one S-slot after v.
  for (NodeId v = 0; v < n; ++v) {
    const Time sv = slot_of[static_cast<std::size_t>(v)];
    OTSCHED_CHECK(sv != kNoTime,
                  "MC input schedule misses node " << v);
    for (NodeId c : dag.children(v)) {
      if (slot_of[static_cast<std::size_t>(c)] == sv + 1) {
        ++next_level_children_[static_cast<std::size_t>(v)];
      }
    }
  }

  for (const Range& level : levels_) {
    std::stable_sort(nodes_.data() + level.begin, nodes_.data() + level.end,
                     [this](NodeId a, NodeId b) {
                       const auto& count = next_level_children_;
                       return count[static_cast<std::size_t>(a)] >
                              count[static_cast<std::size_t>(b)];
                     });
  }
}

void MostChildrenReplayer::mark_prefix_executed(Time prefix_len) {
  OTSCHED_CHECK(!stepped_, "prefix must be marked before stepping");
  prefix_len = std::min<Time>(prefix_len, static_cast<Time>(levels_.size()));
  min_level_ = static_cast<std::size_t>(prefix_len);
  // Before the first step the levels still tile nodes_ from index 0.
  const std::size_t end = min_level_ == 0 ? 0 : levels_[min_level_ - 1].end;
  for (std::size_t i = 0; i < end; ++i) {
    const NodeId v = nodes_[i];
    if (!executed_[static_cast<std::size_t>(v)]) {
      executed_[static_cast<std::size_t>(v)] = 1;
      flush_queue_.push_back(v);  // completed "before step 1"
      --remaining_;
    }
  }
}

int MostChildrenReplayer::step(int budget, std::vector<NodeId>* out) {
  OTSCHED_CHECK(budget >= 0);
  stepped_ = true;
  ++now_;
  // Everything in the queue completed in a strictly earlier step (or the
  // prefix); its children may become ready from this step on.
  for (NodeId v : flush_queue_) {
    pending_.complete(dag_, v, [](NodeId) {});
  }
  flush_queue_.clear();
  int scheduled = 0;

  while (scheduled < budget && remaining_ > 0) {
    // Advance past exhausted levels.
    while (min_level_ < levels_.size()) {
      Range& level = levels_[min_level_];
      NodeId* const base = nodes_.data();
      level.end = static_cast<std::size_t>(
          std::remove_if(base + level.begin, base + level.end,
                         [this](NodeId v) {
                           return executed_[static_cast<std::size_t>(v)] != 0;
                         }) -
          base);
      if (level.end != level.begin) break;
      ++min_level_;
    }
    OTSCHED_CHECK(min_level_ < levels_.size() || remaining_ == 0,
                  "MC lost track of " << remaining_ << " nodes");

    // Scan levels from the earliest unfinished one for a ready subjob;
    // within a level the range is pre-sorted by most-children priority.
    NodeId chosen = kInvalidNode;
    for (std::size_t lvl = min_level_;
         lvl < levels_.size() && chosen == kInvalidNode; ++lvl) {
      for (std::size_t i = levels_[lvl].begin; i < levels_[lvl].end; ++i) {
        const NodeId v = nodes_[i];
        if (executed_[static_cast<std::size_t>(v)]) continue;
        if (pending_.cleared(v)) {
          chosen = v;
          break;
        }
      }
    }
    if (chosen == kInvalidNode) break;  // no ready subjob anywhere

    executed_[static_cast<std::size_t>(chosen)] = 1;
    flush_queue_.push_back(chosen);
    --remaining_;
    ++scheduled;
    if (out != nullptr) out->push_back(chosen);
  }

  if (scheduled < budget && remaining_ > 0) ++busy_violations_;
  return scheduled;
}

}  // namespace otsched
