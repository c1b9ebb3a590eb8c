// Algorithm A (Section 5.3): the clairvoyant O(1)-competitive scheduler
// for out-forest jobs on semi-batched instances, given the optimal
// maximum flow OPT.
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
// The AlgAPlanner below is the window/phase machinery shared by the
// semi-batched scheduler here and the general scheduler in alg_a_full.h
// (which adds the Section 5.4 reductions: release rounding and
// guess-and-double).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/lpf.h"
#include "core/most_children.h"
#include "sim/engine.h"

namespace otsched {

/// The paper's processor reduction factor alpha (Section 5): batches plan
/// on p = m / alpha processors, so alpha must divide m.  The default of
/// both Algorithm A schedulers and the registry's precondition gate.
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
  void plan_slot(Time t, std::vector<SubjobRef>& out);

  /// Age (t - visible_release) of the oldest unfinished batch, or
  /// nullopt if everything planned so far is finished.
  std::optional<Time> oldest_unfinished_age(Time t) const;

  bool all_finished() const;

  /// Engine jobs belonging to unfinished batches (used by the restart in
  /// the guess-and-double wrapper).
  std::vector<JobId> unfinished_members() const;

  /// Total Lemma 5.5 busy violations across all MC replayers (0 expected).
  std::int64_t mc_busy_violations() const;

 private:
  struct PlanJob {
    Time visible_release = 0;
    std::vector<JobId> members;
    std::vector<SubjobRef> refs;  // plan node -> engine subjob
    Dag dag;
    JobSchedule lpf;
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
  std::vector<std::unique_ptr<PlanJob>> batches_;  // by visible_release
  /// Index of the first possibly-unfinished batch; everything before it
  /// is finished and has had its heavy state released.  Keeps plan_slot
  /// O(active batches) over long streams.
  std::size_t first_active_ = 0;
  std::int64_t mc_busy_violations_ = 0;
};

/// The super-clairvoyant semi-batched Algorithm A (Theorem 5.6): requires
/// all releases to be multiples of known_opt / 2 and knows known_opt.
class AlgASemiBatchedScheduler : public Scheduler {
 public:
  struct Options {
    int alpha = kAlgAAlpha;
    /// The known (or assumed) optimal maximum flow; must be even and >= 2
    /// so that W = known_opt / 2 is a positive integer.
    Time known_opt = 2;
    /// Heuristic extension beyond the paper: accept arbitrary DAG jobs
    /// (no O(1) guarantee; see AlgAPlanner).
    bool allow_general_dags = false;
  };

  explicit AlgASemiBatchedScheduler(Options options);

  std::string name() const override { return "alg-a/semi-batched"; }
  bool requires_clairvoyance() const override { return true; }
  // Window plans precompute per-slot assignments for a fixed m; a
  // capacity dip would silently break the Theorem 5.6/5.7 invariants,
  // so the engine must refuse the combination outright.
  bool supports_fluctuating_capacity() const override { return false; }
  void reset(int m, JobId job_count) override;
  void on_arrival(JobId id, const SchedulerView& view) override;
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override;

  std::int64_t mc_busy_violations() const {
    return planner_ ? planner_->mc_busy_violations() : 0;
  }

 private:
  Options options_;
  std::unique_ptr<AlgAPlanner> planner_;
  // Arrivals of the current slot, grouped into one batch at pick time.
  std::vector<JobId> pending_;
  Time pending_release_ = -1;
};

}  // namespace otsched
