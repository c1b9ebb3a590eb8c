// Algorithm A's window planner (Section 5.3), for out-forest jobs on
// semi-batched instances.
//
// Structure per window of W = OPT/2 slots (with p = m/alpha processors):
//   phase 1 — the newest batch replays its LPF[p] schedule, slots 1..W;
//   phase 2 — the previous batch replays LPF[p] slots W+1..2W;
//   phase 3 — all older unfinished batches, in FIFO order, are replayed by
//             the Most-Children algorithm with per-step budget
//             min(remaining processors, p).
// After two windows a batch's LPF *head* (its first OPT slots) is done, and
// by Lemma 5.2 the remainder (the *tail*) is a fully-packed p-wide
// rectangle — exactly the precondition MC needs for Lemma 5.5.
//
// The scheduler is AlgAScheduler (alg_a_full.h): with a known OPT it runs
// this planner on windows of OPT/2 (Theorem 5.6); otherwise it wraps it in
// the Section 5.4 reductions, release rounding and guess-and-double
// (Theorem 5.7).
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "core/lpf.h"
#include "core/most_children.h"
#include "sim/engine.h"

namespace otsched {

/// The paper's processor reduction factor alpha (Section 5): batches plan
/// on p = m / alpha processors, so alpha must divide m.  The default of
/// both Algorithm A modes and the registry's precondition gate.
inline constexpr int kAlgAAlpha = 4;

/// Window/phase planner.  One instance manages the set of materialized
/// batches ("plan jobs") and emits the subjobs to run at each engine slot.
class AlgAPlanner {
 public:
  /// `window` is W (OPT/2 in Section 5.3 terms, the guess G in Section
  /// 5.4 terms).  Requires alpha >= 2 (the paper uses alpha = 4) and
  /// alpha | m.
  ///
  /// `allow_general_dags` drops the out-forest precondition: LPF and MC
  /// run mechanically on any DAG (heights are well-defined; MC's
  /// readiness filter keeps every replay feasible), but the Lemma 5.2
  /// tail shape and the Lemma 5.5 busy guarantee are no longer theorems —
  /// this is the natural candidate for the conclusion's open question
  /// about series-parallel / general DAGs, and mc_busy_violations()
  /// measures exactly where the proof breaks.
  AlgAPlanner(int m, int alpha, Time window, bool allow_general_dags = false);

  Time window() const { return window_; }
  int p() const { return p_; }

  /// Materializes one batch from the UNEXECUTED portions of the member
  /// engine jobs, visible from slot visible_release + 1.  The remaining
  /// sub-DAGs must form an out-forest (always true when the originals are
  /// out-forests).  visible_release must be a multiple of `window` and
  /// strictly newer than any existing batch.
  void add_batch(const SchedulerView& view, std::span<const JobId> members,
                 Time visible_release);

  /// Emits the picks for engine slot t (head replays + MC tails).
  /// Returns the slot's Lemma 5.5 busy violations: MC grants that left a
  /// processor idle while their batch was unfinished (0 on out-forests).
  int plan_slot(Time t, std::vector<SubjobRef>& out);

  /// Age (t - visible_release) of the oldest unfinished batch, or
  /// nullopt if everything planned so far is finished.
  std::optional<Time> oldest_unfinished_age(Time t) const;

  /// Engine jobs belonging to unfinished batches (used by the restart in
  /// the guess-and-double wrapper).
  std::vector<JobId> unfinished_members() const;

 private:
  struct PlanJob {
    Time visible_release = 0;
    std::vector<JobId> members;
    std::vector<SubjobRef> refs;  // plan node -> engine subjob
    Dag dag;
    Schedule lpf{1};  // LPF[p] of `dag`, set by add_batch
    std::unique_ptr<MostChildrenReplayer> mc;
    std::int64_t remaining = 0;

    bool finished() const { return remaining == 0; }
  };

  void replay_head_slot(PlanJob& job, Time lpf_slot,
                        std::vector<SubjobRef>& out, int& used);

  int m_;
  int alpha_;
  int p_;
  Time window_;
  bool allow_general_dags_ = false;
  /// Batches by visible_release.  plan_slot pops finished ones off the
  /// front, so it stays O(active batches) over long streams.
  std::deque<PlanJob> batches_;
  std::optional<Time> newest_release_;  // of every batch ever added
};

}  // namespace otsched
