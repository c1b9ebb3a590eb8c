#include "core/alg_a.h"

#include <algorithm>

#include "common/assert.h"
#include "dag/validate.h"

namespace otsched {

AlgAPlanner::AlgAPlanner(int m, int alpha, Time window,
                         bool allow_general_dags)
    : m_(m),
      alpha_(alpha),
      p_(m / alpha),
      window_(window),
      allow_general_dags_(allow_general_dags) {
  OTSCHED_CHECK(alpha >= 2, "Algorithm A needs alpha >= 2, got " << alpha);
  OTSCHED_CHECK(m % alpha == 0,
                "alpha must divide m (Section 5): m=" << m
                                                      << " alpha=" << alpha);
  OTSCHED_CHECK(p_ >= 1);
  OTSCHED_CHECK(window >= 1, "window must be positive");
}

void AlgAPlanner::add_batch(const SchedulerView& view,
                            std::span<const JobId> members,
                            Time visible_release) {
  OTSCHED_CHECK(visible_release % window_ == 0,
                "batch release " << visible_release
                                 << " is not a multiple of the window "
                                 << window_);
  OTSCHED_CHECK(!newest_release_ || *newest_release_ < visible_release,
                "batches must be added in release order");

  PlanJob plan;
  plan.visible_release = visible_release;

  // Build the union of the members' unexecuted sub-DAGs.
  Dag::Builder builder;
  for (JobId id : members) {
    const Dag& dag = view.dag(id);
    std::vector<NodeId> plan_id(static_cast<std::size_t>(dag.node_count()),
                                kInvalidNode);
    bool any = false;
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      if (view.executed(id, v)) continue;
      plan_id[static_cast<std::size_t>(v)] = builder.add_node();
      plan.refs.push_back(SubjobRef{id, v});
      any = true;
    }
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      const NodeId pv = plan_id[static_cast<std::size_t>(v)];
      if (pv == kInvalidNode) continue;
      for (NodeId c : dag.children(v)) {
        const NodeId pc = plan_id[static_cast<std::size_t>(c)];
        OTSCHED_CHECK(pc != kInvalidNode,
                      "executed child below unexecuted parent: job "
                          << id << " edge " << v << "->" << c);
        builder.add_edge(pv, pc);
      }
    }
    if (any) plan.members.push_back(id);
  }
  plan.dag = std::move(builder).build();
  if (plan.dag.empty()) return;  // everything already executed

  OTSCHED_CHECK(allow_general_dags_ || IsOutForest(plan.dag),
                "Algorithm A requires out-forest jobs (Section 5); "
                "enable allow_general_dags for the heuristic extension");
  plan.lpf = BuildLpfSchedule(plan.dag, p_);
  plan.remaining = plan.dag.node_count();
  newest_release_ = visible_release;
  batches_.push_back(std::move(plan));
}

void AlgAPlanner::replay_head_slot(PlanJob& job, Time lpf_slot,
                                   std::vector<SubjobRef>& out, int& used) {
  for (const SubjobRef& ref : job.lpf.at(lpf_slot)) {
    out.push_back(job.refs[static_cast<std::size_t>(ref.node)]);
    --job.remaining;
    ++used;
  }
}

int AlgAPlanner::plan_slot(Time t, std::vector<SubjobRef>& out) {
  int used = 0;
  int busy_violations = 0;

  // Retire finished front batches, so long streams do not accumulate
  // cost or memory.
  while (!batches_.empty() && batches_.front().finished()) {
    batches_.pop_front();
  }

  // Phases 1 and 2: batches still in their head window (age <= 2W) replay
  // their LPF schedule directly.  Batch releases are spaced >= W apart, so
  // at most two batches are in this range, using at most 2p processors —
  // and they sit at the back of the (release-ordered) batch list.
  for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
    PlanJob& batch = *it;
    const Time age = t - batch.visible_release;
    if (age > 2 * window_) break;
    if (age >= 1 && !batch.finished()) {
      replay_head_slot(batch, age, out, used);
    }
  }

  // Phase 3: older unfinished batches in FIFO order via Most-Children.
  for (PlanJob& batch : batches_) {
    int available = m_ - used;
    if (available <= 0) break;
    const Time age = t - batch.visible_release;
    if (age <= 2 * window_) break;  // release-ordered: the rest are newer
    if (batch.finished()) continue;
    if (!batch.mc) {
      batch.mc = std::make_unique<MostChildrenReplayer>(batch.dag, batch.lpf);
      // The head (LPF slots 1..2W) was replayed verbatim during the first
      // two windows, so it is exactly the executed prefix.
      batch.mc->mark_prefix_executed(2 * window_);
      OTSCHED_CHECK(batch.mc->remaining() == batch.remaining,
                    "head replay accounting mismatch: mc="
                        << batch.mc->remaining()
                        << " plan=" << batch.remaining);
    }
    const int grant = std::min(available, p_);
    std::vector<NodeId> nodes;
    const int scheduled = batch.mc->step(grant, &nodes);
    for (NodeId v : nodes) {
      out.push_back(batch.refs[static_cast<std::size_t>(v)]);
    }
    batch.remaining -= scheduled;
    used += scheduled;
    // Lemma 5.5 counts a grant left idle while the batch is unfinished;
    // this is MC's own rule, as batch.remaining == mc->remaining().
    if (scheduled < grant && !batch.finished()) ++busy_violations;
  }
  OTSCHED_CHECK(used <= m_, "planner over-committed: " << used << " > " << m_);
  return busy_violations;
}

// Retired batches are finished, so the queries below read batches_.

std::optional<Time> AlgAPlanner::oldest_unfinished_age(Time t) const {
  for (const PlanJob& batch : batches_) {
    if (!batch.finished()) return t - batch.visible_release;
  }
  return std::nullopt;
}

std::vector<JobId> AlgAPlanner::unfinished_members() const {
  std::vector<JobId> result;
  for (const PlanJob& batch : batches_) {
    if (!batch.finished()) {
      result.insert(result.end(), batch.members.begin(),
                    batch.members.end());
    }
  }
  return result;
}

}  // namespace otsched
