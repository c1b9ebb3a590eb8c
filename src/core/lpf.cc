#include "core/lpf.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "sim/ready_state.h"

namespace otsched {

Schedule BuildLpfSchedule(const Dag& dag, const DagMetrics& metrics,
                          int p) {
  OTSCHED_CHECK(p >= 1);
  Schedule schedule(p);
  const NodeId n = dag.node_count();
  if (n == 0) return schedule;

  // Ready nodes bucketed by height; the cursor walks down from the top.
  // Heights only decrease along edges, so children enabled by an execution
  // always land in buckets at or below the parent's — but selections for a
  // slot complete before enabling, so same-slot feasibility is automatic.
  std::vector<std::vector<NodeId>> bucket(
      static_cast<std::size_t>(metrics.span) + 1);
  PendingCounters pending;
  pending.init(dag);
  for (NodeId v : pending.roots()) {
    bucket[static_cast<std::size_t>(
               metrics.height[static_cast<std::size_t>(v)])]
        .push_back(v);
  }

  std::int64_t executed = 0;
  std::int64_t top = metrics.span;
  for (Time slot = 1; executed < n; ++slot) {
    // Place up to p ready nodes of maximal height.
    int picked = 0;
    std::int64_t h = top;
    while (picked < p && h >= 1) {
      auto& b = bucket[static_cast<std::size_t>(h)];
      while (!b.empty() && picked < p) {
        schedule.place(slot, SubjobRef{0, b.back()});
        b.pop_back();
        ++picked;
      }
      if (b.empty()) --h;
    }
    OTSCHED_CHECK(picked > 0,
                  "LPF stalled with " << (n - executed) << " nodes left");
    // Keep the cursor tight: everything above h is now empty.
    top = h < 1 ? metrics.span : h;

    for (const SubjobRef& ref : schedule.at(slot)) {
      ++executed;
      pending.complete(dag, ref.node, [&](NodeId c) {
        const auto hc = static_cast<std::size_t>(
            metrics.height[static_cast<std::size_t>(c)]);
        bucket[hc].push_back(c);
        top = std::max<std::int64_t>(top, static_cast<std::int64_t>(hc));
      });
    }
  }
  return schedule;
}

Schedule BuildLpfSchedule(const Dag& dag, int p) {
  return BuildLpfSchedule(dag, ComputeMetrics(dag), p);
}

Schedule BuildLowestHeightFirstSchedule(const Dag& dag,
                                        const DagMetrics& metrics, int p) {
  OTSCHED_CHECK(p >= 1);
  Schedule schedule(p);
  PendingCounters pending;
  pending.init(dag);
  std::vector<NodeId> ready(pending.roots().begin(), pending.roots().end());
  for (Time slot = 1; !ready.empty(); ++slot) {
    std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      return metrics.height[static_cast<std::size_t>(a)] <
             metrics.height[static_cast<std::size_t>(b)];
    });
    const auto taken =
        ready.begin() + std::min<std::ptrdiff_t>(std::ssize(ready), p);
    for (auto it = ready.begin(); it != taken; ++it) {
      schedule.place(slot, SubjobRef{0, *it});
    }
    ready.erase(ready.begin(), taken);
    for (const SubjobRef& ref : schedule.at(slot)) {
      pending.complete(dag, ref.node, [&](NodeId c) { ready.push_back(c); });
    }
  }
  return schedule;
}

Lemma52Report CheckLemma52(const Dag& dag, const Schedule& schedule) {
  Lemma52Report report;
  // The last underfull slot strictly before the final slot.
  const std::vector<Time> underfull =
      schedule.idle_slots(1, schedule.horizon() - 1);
  if (underfull.empty()) return report;  // fully packed: nothing to check
  const Time t = underfull.back();
  report.last_underfull = t;

  std::vector<Time> slot_of(static_cast<std::size_t>(dag.node_count()),
                            kNoTime);
  for (Time s = 1; s <= schedule.horizon(); ++s) {
    for (const SubjobRef& ref : schedule.at(s)) {
      slot_of[static_cast<std::size_t>(ref.node)] = s;
    }
  }
  for (const SubjobRef& ref : schedule.at(t)) {
    const NodeId j = ref.node;
    if (dag.out_degree(j) == 0) continue;  // leaf
    // Walk the unique ancestor chain (out-forest): the ancestor i hops up
    // must sit at slot t - i, all the way down to slot 1.
    NodeId v = j;
    for (Time s = t - 1; s >= 1; --s) {
      const auto parents = dag.parents(v);
      if (parents.size() != 1) {
        report.holds = false;
        std::ostringstream out;
        out << "node " << v << " lacks an ancestor " << (t - s)
            << " hops above subjob " << j << " (slot " << t << ")";
        report.detail = out.str();
        return report;
      }
      v = parents[0];
      if (slot_of[static_cast<std::size_t>(v)] != s) {
        report.holds = false;
        std::ostringstream out;
        out << "ancestor " << v << " of subjob " << j << " runs at slot "
            << slot_of[static_cast<std::size_t>(v)] << ", expected " << s;
        report.detail = out.str();
        return report;
      }
    }
  }
  return report;
}

HeadTailShape AnalyzeHeadTail(const Schedule& schedule, Time head_len) {
  OTSCHED_CHECK(head_len >= 0);
  HeadTailShape shape;
  shape.head_len = std::min(head_len, schedule.horizon());
  shape.tail_len = schedule.horizon() - shape.head_len;
  shape.underfull_tail_slots =
      schedule.idle_slots(head_len + 1, schedule.horizon() - 1);
  return shape;
}

void GlobalLpfScheduler::pick(const SchedulerView& view,
                              std::vector<SubjobRef>& out) {
  pool_.clear();
  std::size_t age_rank = 0;
  for (JobId job : view.alive()) {
    const auto& height = view.metrics(job).height;
    for (NodeId v : view.ready(job)) {
      pool_.push_back(Entry{height[static_cast<std::size_t>(v)], age_rank,
                            SubjobRef{job, v}});
    }
    ++age_rank;
  }
  const std::size_t take =
      std::min(pool_.size(), static_cast<std::size_t>(view.capacity()));
  std::partial_sort(pool_.begin(), pool_.begin() + static_cast<std::ptrdiff_t>(take),
                    pool_.end(), [](const Entry& a, const Entry& b) {
                      if (a.height != b.height) return a.height > b.height;
                      return a.age_rank < b.age_rank;
                    });
  for (std::size_t i = 0; i < take; ++i) out.push_back(pool_[i].ref);
}

}  // namespace otsched
