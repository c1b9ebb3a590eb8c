#include "core/lpf.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "sim/ready_state.h"
#include "sim/validator.h"

namespace otsched {

const std::vector<NodeId>& JobSchedule::at(Time slot) const {
  static const std::vector<NodeId> kEmpty;
  if (slot < 1 || slot > length()) return kEmpty;
  return slots[static_cast<std::size_t>(slot - 1)];
}

Time JobSchedule::last_underfull_slot() const {
  for (Time t = length(); t >= 1; --t) {
    if (load(t) < p) return t;
  }
  return kNoTime;
}

std::int64_t JobSchedule::total() const {
  std::int64_t sum = 0;
  for (const auto& slot : slots) sum += static_cast<std::int64_t>(slot.size());
  return sum;
}

JobSchedule BuildLpfSchedule(const Dag& dag, const DagMetrics& metrics,
                             int p) {
  OTSCHED_CHECK(p >= 1);
  JobSchedule schedule;
  schedule.p = p;
  const NodeId n = dag.node_count();
  schedule.slot_of.assign(static_cast<std::size_t>(n), kNoTime);
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
  std::vector<NodeId> chosen;
  while (executed < n) {
    // Select up to p ready nodes of maximal height.
    chosen.clear();
    std::int64_t h = top;
    while (static_cast<int>(chosen.size()) < p && h >= 1) {
      auto& b = bucket[static_cast<std::size_t>(h)];
      while (!b.empty() && static_cast<int>(chosen.size()) < p) {
        chosen.push_back(b.back());
        b.pop_back();
      }
      if (b.empty()) --h;
    }
    OTSCHED_CHECK(!chosen.empty(),
                  "LPF stalled with " << (n - executed) << " nodes left");
    // Keep the cursor tight: everything above h is now empty.
    top = h < 1 ? metrics.span : h;

    schedule.slots.emplace_back(chosen);
    const Time slot = schedule.length();
    for (NodeId v : chosen) {
      schedule.slot_of[static_cast<std::size_t>(v)] = slot;
      ++executed;
      pending.complete(dag, v, [&](NodeId c) {
        const auto hc = static_cast<std::size_t>(
            metrics.height[static_cast<std::size_t>(c)]);
        bucket[hc].push_back(c);
        top = std::max<std::int64_t>(top, static_cast<std::int64_t>(hc));
      });
    }
  }
  return schedule;
}

JobSchedule BuildLpfSchedule(const Dag& dag, int p) {
  return BuildLpfSchedule(dag, ComputeMetrics(dag), p);
}

std::string CheckJobSchedule(const Dag& dag, const JobSchedule& schedule) {
  // Section 3's axioms on the one-job instance (release 0) on p
  // processors; only slot_of's agreement with the slots is checked here.
  Schedule placed(schedule.p);
  for (Time t = 1; t <= schedule.length(); ++t) {
    for (NodeId v : schedule.at(t)) placed.place(t, SubjobRef{0, v});
  }
  Instance single;
  single.add_job(Job(Dag(dag), 0));
  const ValidationReport report = ValidateSchedule(placed, single);
  if (!report) return report.violation;
  for (Time t = 1; t <= schedule.length(); ++t) {
    for (NodeId v : schedule.at(t)) {
      if (schedule.slot_of[static_cast<std::size_t>(v)] != t) {
        return "slot_of[" + std::to_string(v) + "] inconsistent";
      }
    }
  }
  return "";
}

Lemma52Report CheckLemma52(const Dag& dag, const JobSchedule& schedule) {
  Lemma52Report report;
  // Find the last underfull slot strictly before the final slot.
  Time t = kNoTime;
  for (Time s = schedule.length() - 1; s >= 1; --s) {
    if (schedule.load(s) < schedule.p) {
      t = s;
      break;
    }
  }
  report.last_underfull = t;
  if (t == kNoTime) return report;  // fully packed: nothing to check

  for (NodeId j : schedule.at(t)) {
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
      if (schedule.slot_of[static_cast<std::size_t>(v)] != s) {
        report.holds = false;
        std::ostringstream out;
        out << "ancestor " << v << " of subjob " << j << " runs at slot "
            << schedule.slot_of[static_cast<std::size_t>(v)]
            << ", expected " << s;
        report.detail = out.str();
        return report;
      }
    }
  }
  return report;
}

HeadTailShape AnalyzeHeadTail(const JobSchedule& schedule, Time head_len) {
  OTSCHED_CHECK(head_len >= 0);
  HeadTailShape shape;
  shape.head_len = std::min(head_len, schedule.length());
  shape.tail_len = schedule.length() - shape.head_len;
  for (Time t = head_len + 1; t < schedule.length(); ++t) {
    if (schedule.load(t) < schedule.p) {
      shape.underfull_tail_slots.push_back(t);
    }
  }
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
