// The clairvoyant Algorithm A (Section 5): one scheduler over the
// AlgAPlanner window machinery (core/alg_a.h), in two modes.
//
// OPT unknown (Theorem 5.7, `known_opt == 0`, "alg-a/general"): two
// reductions wrap the semi-batched planner.
//
//  * Release rounding (factor 2): with current guess G, a job released at
//    r is held and becomes visible at the next multiple of G.  The
//    resulting instance is semi-batched for an assumed optimum of 2G, so
//    the planner runs with window W = G.
//
//  * Guess-and-double (factor ~6): the guess G starts at
//    `initial_guess` and, whenever some visible batch's age exceeds
//    beta * G (the Theorem 5.6 flow bound for the assumed optimum 2G),
//    the algorithm concludes G < OPT, doubles G, and restarts: every
//    unfinished job's UNEXECUTED sub-forest re-enters as a fresh arrival
//    at the next multiple of the new G.  Executed prefixes of out-forests
//    leave out-forests, so the planner precondition is preserved.
//
// Known OPT (Theorem 5.6, `known_opt > 0`, "alg-a/semi-batched"): the
// guess is fixed at OPT/2 and never doubles, and every release must lie on
// that grid, so rounding leaves it in place and the jobs released together
// form one batch.
//
// Flows are always measured by the engine against ORIGINAL releases, so
// the holding and restart delays are fully charged to the algorithm.
#pragma once

#include <map>

#include "core/alg_a.h"

namespace otsched {

class AlgAScheduler : public Scheduler {
 public:
  struct Options {
    int alpha = kAlgAAlpha;
    /// Violation threshold multiplier; the paper's analysis uses
    /// beta = 258 with alpha = 4.  The threshold on a batch's age is
    /// beta * G (= beta * OPT'/2 for the assumed optimum OPT' = 2G).
    int beta = 258;
    Time initial_guess = 1;
    /// The known optimal maximum flow (Theorem 5.6), or 0 when OPT is
    /// unknown.  When set it must be even and >= 2, so that the fixed
    /// guess W = known_opt / 2 is a positive integer; beta and
    /// initial_guess are then unused.
    Time known_opt = 0;
    /// Heuristic extension beyond the paper: accept arbitrary DAG jobs
    /// (no O(1) guarantee; see AlgAPlanner).
    bool allow_general_dags = false;
  };

  AlgAScheduler() : AlgAScheduler(Options{}) {}
  explicit AlgAScheduler(Options options);

  std::string name() const override {
    return options_.known_opt > 0 ? "alg-a/semi-batched" : "alg-a/general";
  }
  bool requires_clairvoyance() const override { return true; }
  // Window plans precompute per-slot assignments for a fixed m; a
  // capacity dip would silently break the Theorem 5.6/5.7 invariants,
  // so the engine must refuse the combination outright.
  bool supports_fluctuating_capacity() const override { return false; }
  void reset(int m, JobId job_count) override;
  void on_arrival(JobId id, const SchedulerView& view) override;
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override;

  /// Introspection for experiments.
  Time guess() const { return guess_; }
  int restarts() const { return restarts_; }
  /// Lemma 5.5 busy violations over the whole run (0 on out-forests).
  std::int64_t mc_busy_violations() const { return mc_busy_violations_; }

 private:
  void restart(const SchedulerView& view);
  void materialize_visible(const SchedulerView& view, Time slot);
  Time round_up_to_guess(Time t) const;

  Options options_;
  int m_ = 0;
  Time guess_ = 1;
  int restarts_ = 0;
  std::int64_t mc_busy_violations_ = 0;
  std::unique_ptr<AlgAPlanner> planner_;
  /// Held arrivals: visible_release -> engine jobs (grouped into one batch
  /// when their visibility slot is reached).
  std::map<Time, std::vector<JobId>> held_;
};

}  // namespace otsched
