#include "sim/driver.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/assert.h"
#include "common/timer.h"

namespace otsched {

SimDriver::SimDriver(int m, Scheduler& scheduler, const RunContext& context)
    : m_(m),
      scheduler_(scheduler),
      observer_(context.observer),
      batch_capacity_(context.batch_capacity),
      sequencer_(context.options.faults, m),
      job_faults_(context.options.job_faults) {
  OTSCHED_CHECK(m >= 1);
  const SimOptions& options = context.options;
  clairvoyant_ =
      options.clairvoyance == ClairvoyanceOverride::kPolicyDefault
          ? scheduler.requires_clairvoyance()
          : options.clairvoyance == ClairvoyanceOverride::kAllow;
  record_full_ = options.record == RecordMode::kFull;
  capacity_ = m_;
  const std::string unsupported = RunSupportError(scheduler, options);
  OTSCHED_CHECK(unsupported.empty(), unsupported);
  options_horizon_ = options.max_horizon;
  if (job_faults_.active()) arena_.enable_commit_tracking();
}

Time SimDriver::horizon_bound() const {
  if (options_horizon_ > 0) return options_horizon_;
  // Recomputed from the running aggregates so a stream's bound grows
  // with its submissions.
  return AutoHorizon(max_release_, total_work_, max_span_,
                     sequencer_.active() || job_faults_.active());
}

const Dag& SimDriver::dag(JobId id) const {
  OTSCHED_CHECK(clairvoyant_,
                "non-clairvoyant scheduler '"
                    << scheduler_.name() << "' asked for the DAG of job "
                    << id);
  OTSCHED_CHECK(arrived(id), "DAG of job " << id
                                           << " requested before arrival");
  const Dag* dag = dags_[static_cast<std::size_t>(id)];
  OTSCHED_CHECK(dag != nullptr, "DAG of job " << id
                                              << " requested after retire");
  return *dag;
}

const DagMetrics& SimDriver::metrics(JobId id) const {
  OTSCHED_CHECK(clairvoyant_,
                "non-clairvoyant scheduler '"
                    << scheduler_.name() << "' asked for metrics of job "
                    << id);
  OTSCHED_CHECK(arrived(id),
                "metrics of job " << id << " requested before arrival");
  const std::optional<Job>& job = jobs_[static_cast<std::size_t>(id)];
  OTSCHED_CHECK(job.has_value(), "metrics of job "
                                     << id << " requested after retire");
  return job->metrics();
}

void SimDriver::submit_all(const Instance& instance) {
  // A capacity hint: the whole instance fits without reallocating.
  const std::size_t n = jobs_.size() + instance.jobs().size();
  jobs_.reserve(n);
  dags_.reserve(n);
  release_.reserve(n);
  finish_.reserve(n);
  arrivals_.reserve(n);
  finished_log_.reserve(n);
  retirable_.reserve(n);
  if (job_faults_.active()) wasted_.reserve(n);
  arena_.reserve(instance.jobs().size(), instance.total_work());
  for (const Job& job : instance.jobs()) submit(job);
}

void SimDriver::warm_start(Time resume_slot) {
  OTSCHED_CHECK(!begun_ && jobs_.empty(),
                "warm_start requires a fresh driver");
  OTSCHED_CHECK(resume_slot >= 0);
  // now() == resume_slot; begin() keeps a warm slot (it only clamps up
  // to 1, the cold-start value).
  slot_ = resume_slot > 0 ? resume_slot + 1 : 0;
  max_release_ = resume_slot;  // horizon bound covers the resumed clock
}

JobId SimDriver::submit(Job job, NodeId shown) {
  OTSCHED_CHECK(!finalized_, "submit after drain()");
  OTSCHED_CHECK(job.dag().node_count() >= 1,
                "submitted job has no subjobs");
  OTSCHED_CHECK(shown >= 0 && shown <= job.dag().node_count(),
                "submit shows " << shown << " of "
                                << job.dag().node_count() << " subjobs");
  OTSCHED_CHECK(shown == job.dag().node_count() || !job_faults_.active(),
                "held subjobs cannot run under job faults: a rollback "
                "would release them");
  OTSCHED_CHECK(job.release() >= now(),
                "job submitted with release " << job.release()
                                              << " in the simulated past "
                                                 "(now = " << now() << ")");
  const JobId id = static_cast<JobId>(jobs_.size());
  const Job& ref = *jobs_.emplace_back(std::move(job));
  dags_.push_back(&ref.dag());
  release_.push_back(ref.release());
  finish_.push_back(kNoTime);
  if (job_faults_.active()) wasted_.push_back(0);
  total_work_ += ref.work();
  max_release_ = std::max(max_release_, ref.release());
  max_span_ = std::max(max_span_, ref.span());
  const JobId arena_id = arena_.append(ref.dag(), shown);
  OTSCHED_CHECK(arena_id == id);
  // Every queued arrival delivered: restart the queue, so a stream's
  // queue holds only its pending arrivals.
  if (next_arrival_ == arrivals_.size()) {
    arrivals_.clear();
    next_arrival_ = 0;
  } else if (ref.release() <
             release_[static_cast<std::size_t>(arrivals_.back())]) {
    arrivals_sorted_ = false;
  }
  arrivals_.push_back(id);
  if (begun_) publish_hot();
  return id;
}

void SimDriver::reveal(JobId job, NodeId first, NodeId count) {
  OTSCHED_CHECK(!finalized_, "reveal after drain()");
  OTSCHED_CHECK(!job_faults_.active(),
                "reveal under job faults, which hold no subjobs");
  OTSCHED_CHECK(job >= 0 && job < job_count(),
                "reveal of unknown job " << job);
  const std::size_t j = static_cast<std::size_t>(job);
  OTSCHED_CHECK(release_[j] < now(),
                "reveal of job " << job << " before its arrival");
  OTSCHED_CHECK(count >= 0 && first + count <= arena_.nodes(job),
                "reveal of subjobs [" << first << ", " << first + count
                                      << ") of job " << job << " with "
                                      << arena_.nodes(job) << " subjobs");
  OTSCHED_CHECK(first == arena_.shown(job),
                "reveal of job " << job << " subjob " << first
                                 << ": the first held subjob is "
                                 << arena_.shown(job));
  ready_width_ += arena_.reveal(job, count);
}

void SimDriver::publish_hot() {
  hot_.m = m_;
  hot_.capacity = capacity_;
  hot_.alive = alive_.data();
  hot_.alive_count = alive_.size();
  hot_.ready_base = arena_.ready_storage();
  hot_.node_off = arena_.node_offsets();
  hot_.ready_len = arena_.ready_lengths();
  hot_.done = arena_.done_counts();
  hot_.work = arena_.node_counts();
  hot_.release = release_.data();
}

void SimDriver::begin() {
  begun_ = true;
  alive_.reserve(jobs_.size());
  publish_hot();
  scheduler_.reset(m_, job_count());
  if (record_full_) result_.schedule.emplace(m_);
  picks_.reserve(static_cast<std::size_t>(m_));
  emitter_.reset(this, observer_, batch_capacity_);
  time_picks_ = observer_ != nullptr && observer_->wants_pick_timing();
  if (observer_ != nullptr) observer_->on_run_begin(*this);
  slot_ = std::max<Time>(slot_, 1);  // keep a warm_start() position
}

template <bool kObserved>
void SimDriver::deliver_arrivals(const SchedulerView& view) {
  while (next_arrival_ < arrivals_.size() && next_release() < slot_) {
    const JobId id = arrivals_[next_arrival_++];
    alive_.push_back(id);
    hot_.alive = alive_.data();
    hot_.alive_count = alive_.size();
    // Roots become ready on arrival (increasing node id, the same order
    // the seed engine's arrival rescan produced).
    ready_width_ += arena_.activate(id);
    scheduler_.on_arrival(id, view);
    if constexpr (kObserved) emitter_.arrival(slot_, id);
  }
}

template <bool kObserved, bool kRecordFull>
Time SimDriver::run_slots(const SchedulerView& view, Time max_slots) {
  const JobId n = job_count();
  const std::int64_t total_work = total_work_;
  const Time max_horizon = horizon_bound();

  Time visited = 0;
  while (visited < max_slots && executed_total_ < total_work) {
    // Fast-forward across empty stretches when nothing is alive.
    if (alive_.empty() && next_arrival_ < arrivals_.size()) {
      slot_ = std::max(slot_, next_release() + 1);
    }
    OTSCHED_CHECK(slot_ <= max_horizon,
                  "scheduler '" << scheduler_.name()
                                << "' exceeded the horizon bound "
                                << max_horizon);
    hot_.slot = slot_;

    if constexpr (kObserved) emitter_.slot_begin(slot_);

    deliver_arrivals<kObserved>(view);

    if (sequencer_.active()) {
      // Capacity resolves after the slot's arrivals (the adversarial dip
      // watches the post-arrival alive count) and before the pick.
      const int cap = sequencer_.capacity(
          slot_, static_cast<std::int64_t>(alive_.size()));
      if (cap != capacity_) {
        capacity_ = cap;
        hot_.capacity = capacity_;
        if constexpr (kObserved) emitter_.capacity_change(slot_, capacity_);
      }
      if (capacity_ < m_) {
        ++result_.stats.faulted_slots;
        result_.stats.capacity_shortfall += m_ - capacity_;
      }
    }

    if (job_faults_.active()) {
      // The ROLLBACK step (sim/job_faults.h slot protocol): resolved
      // after arrivals and capacity, before the pick, so the scheduler
      // only ever sees post-rollback ready sets.
      for (const JobId id : alive_) {
        const std::size_t j = static_cast<std::size_t>(id);
        const std::int64_t volatile_work =
            arena_.done(id) - arena_.committed_done(id);
        if (volatile_work <= 0) continue;
        if (!job_faults_.crashes(slot_, id, release_[j], volatile_work)) {
          continue;
        }
        const std::int64_t ready_before =
            static_cast<std::int64_t>(arena_.ready(id).size());
        const std::int64_t wasted =
            arena_.rollback_to_checkpoint(*dags_[j], id);
        ready_width_ +=
            static_cast<std::int64_t>(arena_.ready(id).size()) - ready_before;
        executed_total_ -= wasted;
        wasted_[j] += wasted;
        ++result_.stats.job_rollbacks;
        result_.stats.wasted_subjob_slots += wasted;
        if constexpr (kObserved) {
          emitter_.rollback(slot_, id, wasted, committed_total_);
        }
      }
    }

    picks_.clear();
    double pick_seconds = 0.0;
    if constexpr (kObserved) {
      if (time_picks_) {
        WallTimer pick_timer;
        scheduler_.pick(view, picks_);
        pick_seconds = pick_timer.elapsed_seconds();
      } else {
        scheduler_.pick(view, picks_);
      }
    } else {
      scheduler_.pick(view, picks_);
    }

    OTSCHED_CHECK(static_cast<int>(picks_.size()) <= capacity_,
                  "scheduler '" << scheduler_.name() << "' picked "
                                << picks_.size() << " subjobs with capacity "
                                << capacity_ << " (m = " << m_
                                << ") at slot " << slot_);
    // Validate readiness and uniqueness, then execute.
    for (const SubjobRef& ref : picks_) {
      OTSCHED_CHECK(ref.job >= 0 && ref.job < n,
                    "pick references unknown job " << ref.job);
      const std::size_t j = static_cast<std::size_t>(ref.job);
      OTSCHED_CHECK(dags_[j] != nullptr,
                    "retired job " << ref.job << " picked at slot " << slot_);
      OTSCHED_CHECK(ref.node >= 0 && ref.node < dags_[j]->node_count(),
                    "pick references unknown node " << ref.node << " of job "
                                                    << ref.job);
      OTSCHED_CHECK(arrived(ref.job), "job " << ref.job
                                             << " picked before arrival at slot "
                                             << slot_);
      OTSCHED_CHECK(!arena_.is_executed(ref.job, ref.node),
                    "job " << ref.job << " node " << ref.node
                           << " picked twice (slot " << slot_ << ")");
      OTSCHED_CHECK(arena_.is_ready(ref.job, ref.node),
                    "job " << ref.job << " node " << ref.node
                           << " is not ready at slot " << slot_);
    }
    if constexpr (kObserved) {
      // The pre-execution flush: picks are final, the backend still shows
      // the state the scheduler saw, and the event carries the incremental
      // alive/ready-width counters observers used to recompute per pick.
      emitter_.pick_block(slot_, picks_,
                          static_cast<std::int64_t>(alive_.size()),
                          ready_width_, pick_seconds);
    }
    // Same-slot duplicate picks are caught by the executed flag flipping
    // during execution below.
    for (const SubjobRef& ref : picks_) {
      OTSCHED_CHECK(!arena_.is_executed(ref.job, ref.node),
                    "duplicate pick of job " << ref.job << " node "
                                             << ref.node << " in slot "
                                             << slot_);
      const std::size_t j = static_cast<std::size_t>(ref.job);
      // Children may become ready — but only from the NEXT slot, which is
      // fine because picks for the current slot were already validated
      // against the pre-execution ready sets.
      ready_width_ += arena_.execute(*dags_[j], ref.job, ref.node);
      ++executed_total_;
      // A static DAG's ready set empties exactly when the job finishes;
      // only a job with held subjobs can run dry before that.
      if (arena_.ready(ref.job).empty()) {
        if (arena_.done(ref.job) < arena_.nodes(ref.job)) {
          exhausted_.push_back(ref);
        } else {
          std::int64_t job_wasted = 0;
          if (job_faults_.active()) {
            // Implicit finish-commit: a finished job is never rolled back,
            // so retire-on-finish recycling stays sound.  Not counted in
            // stats.checkpoints (it is not an interval-policy commit).
            const std::int64_t newly = arena_.checkpoint(ref.job);
            committed_total_ += newly;
            job_wasted = wasted_[j];
            if constexpr (kObserved) {
              emitter_.checkpoint(slot_, ref.job, newly, committed_total_);
            }
          }
          ++finished_this_slot_;
          finish_[j] = slot_;
          finished_log_.push_back({ref.job, release_[j], slot_,
                                   slot_ - release_[j], ref.node,
                                   job_wasted});
          retirable_.push_back(ref.job);
          if constexpr (kObserved) completed_now_.push_back(ref.job);
        }
      }
      if constexpr (kRecordFull) result_.schedule->place(slot_, ref);
    }
    if (job_faults_.active()) {
      // The CHECKPOINT step: interval-policy commits at end of slot for
      // every alive unfinished job with volatile work (finishing jobs
      // already finish-committed above; the alive list is compacted
      // after this, so skip finished entries explicitly).
      for (const JobId id : alive_) {
        if (finished(id)) continue;
        const std::int64_t volatile_work =
            arena_.done(id) - arena_.committed_done(id);
        if (!job_faults_.checkpoint_due(slot_, volatile_work)) continue;
        const std::int64_t newly = arena_.checkpoint(id);
        committed_total_ += newly;
        ++result_.stats.checkpoints;
        if constexpr (kObserved) {
          emitter_.checkpoint(slot_, id, newly, committed_total_);
        }
      }
    }
    if constexpr (kObserved) {
      if (!completed_now_.empty()) {
        // Ascending job id, matching DeriveTrace's completion order.
        std::sort(completed_now_.begin(), completed_now_.end());
        for (const JobId id : completed_now_) emitter_.complete(slot_, id);
        completed_now_.clear();
      }
      emitter_.slot_end();
    }
    if (!picks_.empty()) {
      ++result_.stats.busy_slots;
      last_busy_slot_ = slot_;
    }
    if (finished_this_slot_ > 0) {
      // The seed engine swept the alive list every slot; sweeping only
      // when a job finished is observationally identical (a sweep with no
      // finished job removes nothing) and drops the per-slot cost from
      // O(alive) to O(1) outside finishing slots.
      std::erase_if(alive_, [this](JobId id) { return finished(id); });
      hot_.alive = alive_.data();
      hot_.alive_count = alive_.size();
      finished_this_slot_ = 0;
    }
    ++slot_;
    ++visited;
  }
  return visited;
}

Time SimDriver::advance(Time max_slots) {
  OTSCHED_CHECK(!finalized_, "advance after drain()");
  if (!begun_) begin();
  exhausted_.clear();
  if (max_slots <= 0 || idle()) return 0;
  if (!arrivals_sorted_) {
    std::sort(arrivals_.begin() + static_cast<std::ptrdiff_t>(next_arrival_),
              arrivals_.end(), [this](JobId a, JobId b) {
                return std::pair(release(a), a) < std::pair(release(b), b);
              });
    arrivals_sorted_ = true;
  }
  SchedulerView view(*this, &hot_);
  // One loop instantiation per (observed, record-full) mode: unobserved
  // flow-only runs — the sweep/adversary configuration — compile to a
  // loop with no observer or schedule code at all.
  if (observer_ != nullptr) {
    if (record_full_) return run_slots<true, true>(view, max_slots);
    return run_slots<true, false>(view, max_slots);
  }
  if (record_full_) return run_slots<false, true>(view, max_slots);
  return run_slots<false, false>(view, max_slots);
}

SimResult SimDriver::drain() {
  OTSCHED_CHECK(!finalized_, "drain called twice");
  if (!begun_) begin();
  while (!idle()) {
    advance(std::numeric_limits<Time>::max());
  }
  finalized_ = true;
  // Stats and finish slots are recorded online in BOTH record modes
  // (ComputeFlows over a materialized schedule yields the same flows, as
  // the engine-equivalence gate proves).
  result_.stats.horizon = last_busy_slot_;
  result_.stats.executed_subjobs = executed_total_;
  // Wasted (rolled-back) subjob slots occupied processors too: they are
  // neither idle nor part of the committed executed count.
  std::int64_t processor_slots = 0;
  OTSCHED_CHECK(!__builtin_mul_overflow(static_cast<std::int64_t>(m_),
                                        last_busy_slot_, &processor_slots),
                "m * horizon = " << m_ << " * " << last_busy_slot_
                                 << " processor-slots overflow int64");
  result_.stats.idle_processor_slots =
      processor_slots - executed_total_ - result_.stats.wasted_subjob_slots;
  result_.flows = SummarizeFlows(release_, std::move(finish_));
  if (observer_ != nullptr) observer_->on_finish(result_);
  return std::move(result_);
}

std::vector<SimDriver::FinishedJob> SimDriver::take_finished() {
  return std::exchange(finished_log_, {});
}

std::size_t SimDriver::retire_finished() {
  std::size_t retired = 0;
  for (const JobId id : retirable_) {
    const std::size_t j = static_cast<std::size_t>(id);
    arena_.retire(id);
    dags_[j] = nullptr;
    jobs_[j].reset();
    ++retired;
  }
  retirable_.clear();
  return retired;
}

// Explicit instantiations keep the four loop flavours in this TU.
template Time SimDriver::run_slots<false, false>(const SchedulerView&, Time);
template Time SimDriver::run_slots<false, true>(const SchedulerView&, Time);
template Time SimDriver::run_slots<true, false>(const SchedulerView&, Time);
template Time SimDriver::run_slots<true, true>(const SchedulerView&, Time);

}  // namespace otsched
