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
  OTSCHED_CHECK(batches_.empty() ||
                    batches_.back()->visible_release < visible_release,
                "batches must be added in release order");

  auto plan = std::make_unique<PlanJob>();
  plan->visible_release = visible_release;

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
      plan->refs.push_back(SubjobRef{id, v});
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
    if (any) plan->members.push_back(id);
  }
  plan->dag = std::move(builder).build();
  if (plan->dag.empty()) return;  // everything already executed

  OTSCHED_CHECK(allow_general_dags_ || IsOutForest(plan->dag),
                "Algorithm A requires out-forest jobs (Section 5); "
                "enable allow_general_dags for the heuristic extension");
  plan->lpf = BuildLpfSchedule(plan->dag, p_);
  plan->remaining = plan->dag.node_count();
  batches_.push_back(std::move(plan));
}

void AlgAPlanner::replay_head_slot(PlanJob& job, Time lpf_slot,
                                   std::vector<SubjobRef>& out, int& used) {
  if (lpf_slot < 1 || lpf_slot > job.lpf.length()) return;
  for (NodeId v : job.lpf.at(lpf_slot)) {
    out.push_back(job.refs[static_cast<std::size_t>(v)]);
    --job.remaining;
    ++used;
  }
}

void AlgAPlanner::plan_slot(Time t, std::vector<SubjobRef>& out) {
  int used = 0;

  // Retire finished front batches and release their heavy state, so long
  // streams do not accumulate cost or memory.
  while (first_active_ < batches_.size() &&
         batches_[first_active_]->finished()) {
    PlanJob& done = *batches_[first_active_];
    if (done.mc) {
      mc_busy_violations_ += done.mc->busy_violations();
      done.mc.reset();
    }
    done.dag = Dag();
    done.lpf = JobSchedule();
    done.refs = std::vector<SubjobRef>();
    ++first_active_;
  }

  // Phases 1 and 2: batches still in their head window (age <= 2W) replay
  // their LPF schedule directly.  Batch releases are spaced >= W apart, so
  // at most two batches are in this range, using at most 2p processors —
  // and they sit at the back of the (release-ordered) batch list.
  for (std::size_t k = batches_.size(); k-- > first_active_;) {
    PlanJob& batch = *batches_[k];
    const Time age = t - batch.visible_release;
    if (age > 2 * window_) break;
    if (age >= 1 && !batch.finished()) {
      replay_head_slot(batch, age, out, used);
    }
  }

  // Phase 3: older unfinished batches in FIFO order via Most-Children.
  for (std::size_t k = first_active_; k < batches_.size(); ++k) {
    PlanJob* batch = batches_[k].get();
    int available = m_ - used;
    if (available <= 0) break;
    const Time age = t - batch->visible_release;
    if (age <= 2 * window_) break;  // release-ordered: the rest are newer
    if (batch->finished()) continue;
    if (!batch->mc) {
      batch->mc = std::make_unique<MostChildrenReplayer>(batch->dag,
                                                         batch->lpf);
      // The head (LPF slots 1..2W) was replayed verbatim during the first
      // two windows, so it is exactly the executed prefix.
      batch->mc->mark_prefix_executed(2 * window_);
      OTSCHED_CHECK(batch->mc->remaining() == batch->remaining,
                    "head replay accounting mismatch: mc="
                        << batch->mc->remaining()
                        << " plan=" << batch->remaining);
    }
    const int grant = std::min(available, p_);
    std::vector<NodeId> nodes;
    const int scheduled = batch->mc->step(grant, &nodes);
    for (NodeId v : nodes) {
      out.push_back(batch->refs[static_cast<std::size_t>(v)]);
    }
    batch->remaining -= scheduled;
    used += scheduled;
  }
  OTSCHED_CHECK(used <= m_, "planner over-committed: " << used << " > " << m_);
}

// Every batch before first_active_ is finished, and its MC violations
// are already folded into mc_busy_violations_, so the queries below
// start there.

std::optional<Time> AlgAPlanner::oldest_unfinished_age(Time t) const {
  for (std::size_t k = first_active_; k < batches_.size(); ++k) {
    if (!batches_[k]->finished()) return t - batches_[k]->visible_release;
  }
  return std::nullopt;
}

bool AlgAPlanner::all_finished() const {
  return std::all_of(batches_.begin() + first_active_, batches_.end(),
                     [](const auto& b) { return b->finished(); });
}

std::vector<JobId> AlgAPlanner::unfinished_members() const {
  std::vector<JobId> result;
  for (std::size_t k = first_active_; k < batches_.size(); ++k) {
    const PlanJob& batch = *batches_[k];
    if (!batch.finished()) {
      result.insert(result.end(), batch.members.begin(),
                    batch.members.end());
    }
  }
  return result;
}

std::int64_t AlgAPlanner::mc_busy_violations() const {
  std::int64_t total = mc_busy_violations_;
  for (std::size_t k = first_active_; k < batches_.size(); ++k) {
    if (batches_[k]->mc) total += batches_[k]->mc->busy_violations();
  }
  return total;
}

// --- Semi-batched scheduler -------------------------------------------

AlgASemiBatchedScheduler::AlgASemiBatchedScheduler(Options options)
    : options_(options) {
  OTSCHED_CHECK(options_.known_opt >= 2 && options_.known_opt % 2 == 0,
                "known_opt must be an even value >= 2 so that W = OPT/2 "
                "is a positive integer; got "
                    << options_.known_opt);
}

void AlgASemiBatchedScheduler::reset(int m, JobId job_count) {
  (void)job_count;
  planner_ = std::make_unique<AlgAPlanner>(m, options_.alpha,
                                           options_.known_opt / 2,
                                           options_.allow_general_dags);
  pending_.clear();
  pending_release_ = -1;
}

void AlgASemiBatchedScheduler::on_arrival(JobId id,
                                          const SchedulerView& view) {
  const Time release = view.release(id);
  OTSCHED_CHECK(release % planner_->window() == 0,
                "semi-batched instance required: job "
                    << id << " released at " << release
                    << " which is not a multiple of OPT/2 = "
                    << planner_->window());
  OTSCHED_CHECK(pending_.empty() || pending_release_ == release,
                "arrivals for a previous batch were never planned");
  pending_release_ = release;
  pending_.push_back(id);
}

void AlgASemiBatchedScheduler::pick(const SchedulerView& view,
                                    std::vector<SubjobRef>& out) {
  if (!pending_.empty()) {
    planner_->add_batch(view, pending_, pending_release_);
    pending_.clear();
  }
  planner_->plan_slot(view.slot(), out);
}

}  // namespace otsched
