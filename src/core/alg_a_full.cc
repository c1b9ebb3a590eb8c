#include "core/alg_a_full.h"

#include "common/assert.h"

namespace otsched {

AlgAScheduler::AlgAScheduler(Options options) : options_(options) {
  OTSCHED_CHECK(options_.beta >= 1);
  OTSCHED_CHECK(options_.initial_guess >= 1);
  OTSCHED_CHECK(options_.known_opt == 0 ||
                    (options_.known_opt >= 2 && options_.known_opt % 2 == 0),
                "known_opt must be an even value >= 2 so that W = OPT/2 "
                "is a positive integer; got "
                    << options_.known_opt);
}

void AlgAScheduler::reset(int m, JobId job_count) {
  (void)job_count;
  m_ = m;
  guess_ = options_.known_opt > 0 ? options_.known_opt / 2
                                  : options_.initial_guess;
  restarts_ = 0;
  mc_busy_violations_ = 0;
  planner_ = std::make_unique<AlgAPlanner>(m, options_.alpha, guess_,
                                           options_.allow_general_dags);
  held_.clear();
}

Time AlgAScheduler::round_up_to_guess(Time t) const {
  return ((t + guess_ - 1) / guess_) * guess_;
}

void AlgAScheduler::on_arrival(JobId id, const SchedulerView& view) {
  const Time release = view.release(id);
  OTSCHED_CHECK(options_.known_opt == 0 || release % guess_ == 0,
                "semi-batched instance required: job "
                    << id << " released at " << release
                    << " which is not a multiple of OPT/2 = " << guess_);
  // Section 5.4: a job released at r is ignored until the next multiple
  // of the (current) guess.
  held_[round_up_to_guess(release)].push_back(id);
}

void AlgAScheduler::materialize_visible(const SchedulerView& view,
                                        Time slot) {
  while (!held_.empty() && held_.begin()->first < slot) {
    const auto& [release, members] = *held_.begin();
    planner_->add_batch(view, members, release);
    held_.erase(held_.begin());
  }
}

void AlgAScheduler::restart(const SchedulerView& view) {
  guess_ *= 2;
  ++restarts_;

  // Everything unfinished — already planned or still held — re-enters as
  // a fresh arrival at the next multiple of the new guess.
  std::vector<JobId> displaced = planner_->unfinished_members();
  for (const auto& [release, members] : held_) {
    displaced.insert(displaced.end(), members.begin(), members.end());
  }
  held_.clear();

  planner_ = std::make_unique<AlgAPlanner>(m_, options_.alpha, guess_,
                                           options_.allow_general_dags);

  const Time revisit = round_up_to_guess(view.slot());
  for (JobId id : displaced) {
    if (view.finished(id)) continue;
    held_[revisit].push_back(id);
  }
}

void AlgAScheduler::pick(const SchedulerView& view,
                         std::vector<SubjobRef>& out) {
  const Time slot = view.slot();

  // Guess-and-double trigger: a visible batch older than beta * G means
  // the assumed optimum 2G is too small (Theorem 5.6 would have finished
  // it by now).  A known OPT fixes the guess.
  if (options_.known_opt == 0) {
    const auto age = planner_->oldest_unfinished_age(slot);
    if (age.has_value() &&
        *age > static_cast<Time>(options_.beta) * guess_) {
      restart(view);
    }
  }

  materialize_visible(view, slot);
  mc_busy_violations_ += planner_->plan_slot(slot, out);
}

}  // namespace otsched
