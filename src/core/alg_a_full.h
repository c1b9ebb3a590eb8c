// The general clairvoyant Algorithm A (Section 5.4, Theorem 5.7):
// arbitrary release times, OPT unknown.
//
// Two reductions wrap the semi-batched planner:
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
    /// Heuristic extension beyond the paper: accept arbitrary DAG jobs
    /// (no O(1) guarantee; see AlgAPlanner).
    bool allow_general_dags = false;
  };

  AlgAScheduler() : AlgAScheduler(Options{}) {}
  explicit AlgAScheduler(Options options);

  std::string name() const override { return "alg-a/general"; }
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
  std::int64_t mc_busy_violations() const {
    return carried_mc_violations_ +
           (planner_ ? planner_->mc_busy_violations() : 0);
  }

 private:
  void restart(const SchedulerView& view);
  void materialize_visible(const SchedulerView& view, Time slot);
  Time round_up_to_guess(Time t) const;

  Options options_;
  int m_ = 0;
  Time guess_ = 1;
  int restarts_ = 0;
  std::int64_t carried_mc_violations_ = 0;
  std::unique_ptr<AlgAPlanner> planner_;
  /// Held arrivals: visible_release -> engine jobs (grouped into one batch
  /// when their visibility slot is reached).
  std::map<Time, std::vector<JobId>> held_;
};

}  // namespace otsched
