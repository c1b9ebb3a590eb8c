// The seed engine, kept as the golden baseline.
//
// ReferenceSimulate is the pre-incremental implementation: it rescans a
// job's whole DAG to publish roots on arrival and compacts the alive set
// with a full pass every slot.  It exists ONLY as the comparison oracle
// for the engine-equivalence gate (tests/engine_equivalence_test.cc) and
// the before/after rows of bench_micro_perf; production callers go
// through Simulate().  It delivers the same SlotEvent stream as the
// incremental engine (sim/observer.h) so the gate can also prove the two
// streams identical.  Keep it as long as that gate exists: it is the
// independent implementation the incremental engine is compared with.
#include <algorithm>

#include "common/assert.h"
#include "common/timer.h"
#include "sim/engine.h"

namespace otsched {

namespace {

class ReferenceEngine final : public EngineBackend {
 public:
  ReferenceEngine(const Instance& instance, int m, Scheduler& scheduler,
                  const RunContext& context)
      : instance_(instance),
        m_(m),
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
    max_horizon_ = options.max_horizon > 0
                       ? options.max_horizon
                       : AutoHorizon(instance.max_release(),
                                     instance.total_work(),
                                     instance.max_span(),
                                     sequencer_.active() ||
                                         job_faults_.active());
  }

  SimResult run();

  // --- EngineBackend implementation ---
  Time slot() const override { return slot_; }
  int m() const override { return m_; }
  int capacity() const override { return capacity_; }
  JobId job_count() const override { return instance_.job_count(); }
  std::span<const JobId> alive() const override { return alive_; }
  Time release(JobId id) const override {
    return instance_.job(id).release();
  }
  bool arrived(JobId id) const override { return release(id) < slot_; }
  bool finished(JobId id) const override {
    return done_[static_cast<std::size_t>(id)] ==
           instance_.job(id).work();
  }
  std::span<const NodeId> ready(JobId id) const override {
    return ready_[static_cast<std::size_t>(id)];
  }
  std::int64_t remaining_work(JobId id) const override {
    return instance_.job(id).work() - done_[static_cast<std::size_t>(id)];
  }
  std::int64_t done_work(JobId id) const override {
    return done_[static_cast<std::size_t>(id)];
  }
  bool executed(JobId id, NodeId v) const override {
    return executed_[static_cast<std::size_t>(id)]
                    [static_cast<std::size_t>(v)];
  }
  const Dag& dag(JobId id) const override {
    OTSCHED_CHECK(clairvoyant_,
                  "non-clairvoyant scheduler '"
                      << scheduler_.name() << "' asked for the DAG of job "
                      << id);
    OTSCHED_CHECK(arrived(id), "DAG of job " << id
                                             << " requested before arrival");
    return instance_.job(id).dag();
  }
  const DagMetrics& metrics(JobId id) const override {
    OTSCHED_CHECK(clairvoyant_,
                  "non-clairvoyant scheduler '"
                      << scheduler_.name()
                      << "' asked for metrics of job " << id);
    OTSCHED_CHECK(arrived(id),
                  "metrics of job " << id << " requested before arrival");
    return instance_.job(id).metrics();
  }
  bool clairvoyant_allowed() const override { return clairvoyant_; }

 private:
  void deliver_arrivals(const SchedulerView& view);
  void execute(SubjobRef ref);
  void refresh_alive();
  std::int64_t commit_job(JobId id);
  std::int64_t rollback_job(JobId id);

  const Instance& instance_;
  int m_;
  Scheduler& scheduler_;
  RunObserver* observer_ = nullptr;  // borrowed; null = uninstrumented run
  std::size_t batch_capacity_;       // event-ring size (RunContext)
  SlotEventEmitter emitter_;         // batched event stream writer
  bool time_picks_ = false;          // observer wants pick_seconds?
  bool clairvoyant_ = false;
  bool record_full_ = true;          // materialize the Schedule?
  Time max_horizon_ = 0;
  BudgetSequencer sequencer_;        // per-slot capacity source
  int capacity_ = 1;                 // current slot's budget, m_t <= m
  JobFaultSequencer job_faults_;     // per-(slot, job) crash/commit source
  std::int64_t committed_total_ = 0; // engine-wide committed frontier
  // Checkpoint snapshots (job faults only; the baseline mirror of the
  // arena's commit bitset and committed_done counters).
  std::vector<std::vector<char>> committed_executed_;
  std::vector<std::int64_t> committed_done_;

  Time slot_ = 0;
  Time last_busy_slot_ = 0;          // online horizon (== schedule horizon)
  FlowAccumulator flows_;            // online flow accounting, both modes
  std::vector<std::vector<NodeId>> ready_;        // per job, unordered
  std::vector<std::vector<NodeId>> ready_pos_;    // node -> index in ready_, or -1
  std::vector<std::vector<char>> executed_;       // per job per node
  std::vector<std::vector<NodeId>> pending_in_;   // remaining indegree
  std::vector<std::int64_t> done_;                // executed count per job
  std::vector<JobId> alive_;                      // arrived, unfinished, FIFO order
  std::vector<JobId> arrival_order_;              // all jobs by (release, id)
  std::size_t next_arrival_ = 0;
  std::int64_t executed_total_ = 0;
  std::vector<JobId> completed_now_;  // observer-only: jobs finished this slot
};

void ReferenceEngine::execute(SubjobRef ref) {
  const std::size_t j = static_cast<std::size_t>(ref.job);
  const std::size_t v = static_cast<std::size_t>(ref.node);
  executed_[j][v] = 1;
  ++done_[j];
  ++executed_total_;
  if (observer_ != nullptr && finished(ref.job)) {
    completed_now_.push_back(ref.job);
  }
  // Remove from the ready list via swap-erase.
  auto& ready = ready_[j];
  auto& pos = ready_pos_[j];
  const NodeId p = pos[v];
  OTSCHED_DCHECK(p >= 0);
  const NodeId moved = ready.back();
  ready[static_cast<std::size_t>(p)] = moved;
  pos[static_cast<std::size_t>(moved)] = p;
  ready.pop_back();
  pos[v] = kInvalidNode;
  // Children may become ready — but only from the NEXT slot, which is fine
  // because picks for the current slot were already validated against the
  // pre-execution ready sets.
  const Dag& dag = instance_.job(ref.job).dag();
  for (NodeId c : dag.children(ref.node)) {
    if (--pending_in_[j][static_cast<std::size_t>(c)] == 0) {
      pos[static_cast<std::size_t>(c)] = static_cast<NodeId>(ready.size());
      ready.push_back(c);
    }
  }
}

void ReferenceEngine::deliver_arrivals(const SchedulerView& view) {
  while (next_arrival_ < arrival_order_.size()) {
    const JobId id = arrival_order_[next_arrival_];
    if (instance_.job(id).release() >= slot_) break;
    ++next_arrival_;
    alive_.push_back(id);
    // Roots become ready on arrival: a rescan of the in-degree table, as
    // SimDriver's arena scans its pending counters.
    const Dag& dag = instance_.job(id).dag();
    const std::size_t j = static_cast<std::size_t>(id);
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      if (pending_in_[j][static_cast<std::size_t>(v)] == 0) {
        ready_pos_[j][static_cast<std::size_t>(v)] =
            static_cast<NodeId>(ready_[j].size());
        ready_[j].push_back(v);
      }
    }
    scheduler_.on_arrival(id, view);
    if (emitter_.active()) emitter_.arrival(slot_, id);
  }
}

void ReferenceEngine::refresh_alive() {
  std::erase_if(alive_, [this](JobId id) { return finished(id); });
}

std::int64_t ReferenceEngine::commit_job(JobId id) {
  const std::size_t j = static_cast<std::size_t>(id);
  const std::int64_t newly = done_[j] - committed_done_[j];
  if (newly == 0) return 0;
  committed_executed_[j] = executed_[j];
  committed_done_[j] = done_[j];
  return newly;
}

std::int64_t ReferenceEngine::rollback_job(JobId id) {
  const std::size_t j = static_cast<std::size_t>(id);
  const std::int64_t wasted = done_[j] - committed_done_[j];
  if (wasted == 0) return 0;
  const Dag& dag = instance_.job(id).dag();
  const NodeId n = dag.node_count();
  executed_[j] = committed_executed_[j];
  // Rebuild pending counts and the ready list from the restored executed
  // set, in increasing node id — the rollback determinism contract
  // (sim/ready_state.h), mirrored exactly.
  auto& ready = ready_[j];
  auto& pos = ready_pos_[j];
  ready.clear();
  for (NodeId v = 0; v < n; ++v) {
    pos[static_cast<std::size_t>(v)] = kInvalidNode;
    if (executed_[j][static_cast<std::size_t>(v)]) {
      pending_in_[j][static_cast<std::size_t>(v)] = 0;
      continue;
    }
    NodeId p = 0;
    for (const NodeId u : dag.parents(v)) {
      if (!executed_[j][static_cast<std::size_t>(u)]) ++p;
    }
    pending_in_[j][static_cast<std::size_t>(v)] = p;
    if (p == 0) {
      pos[static_cast<std::size_t>(v)] = static_cast<NodeId>(ready.size());
      ready.push_back(v);
    }
  }
  executed_total_ -= wasted;
  done_[j] = committed_done_[j];
  return wasted;
}

SimResult ReferenceEngine::run() {
  const JobId n = instance_.job_count();
  ready_.resize(static_cast<std::size_t>(n));
  ready_pos_.resize(static_cast<std::size_t>(n));
  executed_.resize(static_cast<std::size_t>(n));
  pending_in_.resize(static_cast<std::size_t>(n));
  done_.assign(static_cast<std::size_t>(n), 0);
  for (JobId id = 0; id < n; ++id) {
    const Dag& dag = instance_.job(id).dag();
    OTSCHED_CHECK(dag.node_count() >= 1,
                  "job " << id << " has no subjobs");
    const std::size_t j = static_cast<std::size_t>(id);
    executed_[j].assign(static_cast<std::size_t>(dag.node_count()), 0);
    ready_pos_[j].assign(static_cast<std::size_t>(dag.node_count()),
                         kInvalidNode);
    pending_in_[j].resize(static_cast<std::size_t>(dag.node_count()));
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      pending_in_[j][static_cast<std::size_t>(v)] = dag.in_degree(v);
    }
  }
  arrival_order_ = instance_.release_order();
  if (job_faults_.active()) {
    committed_executed_ = executed_;  // all-zero initial snapshots
    committed_done_.assign(static_cast<std::size_t>(n), 0);
  }

  scheduler_.reset(m_, n);
  SchedulerView view(*this);
  flows_.init(instance_);
  SimResult result;
  if (record_full_) result.schedule.emplace(m_);

  std::vector<SubjobRef> picks;
  const std::int64_t total_work = instance_.total_work();

  emitter_.reset(this, observer_, batch_capacity_);
  time_picks_ = observer_ != nullptr && observer_->wants_pick_timing();
  if (observer_ != nullptr) observer_->on_run_begin(*this);

  slot_ = 1;
  while (executed_total_ < total_work) {
    // Fast-forward across empty stretches when nothing is alive.
    if (alive_.empty() && next_arrival_ < arrival_order_.size()) {
      const Time next_release =
          instance_.job(arrival_order_[next_arrival_]).release();
      slot_ = std::max(slot_, next_release + 1);
    }
    OTSCHED_CHECK(slot_ <= max_horizon_,
                  "scheduler '" << scheduler_.name()
                                << "' exceeded the horizon bound "
                                << max_horizon_);

    if (emitter_.active()) emitter_.slot_begin(slot_);

    deliver_arrivals(view);

    if (sequencer_.active()) {
      // Capacity resolves after the slot's arrivals and before the pick,
      // exactly as in the incremental engine.
      const int cap = sequencer_.capacity(
          slot_, static_cast<std::int64_t>(alive_.size()));
      if (cap != capacity_) {
        capacity_ = cap;
        if (emitter_.active()) emitter_.capacity_change(slot_, capacity_);
      }
      if (capacity_ < m_) {
        ++result.stats.faulted_slots;
        result.stats.capacity_shortfall += m_ - capacity_;
      }
    }

    if (job_faults_.active()) {
      // The ROLLBACK step, mirroring the incremental engine exactly:
      // after arrivals and capacity, before the pick.
      for (const JobId id : alive_) {
        const std::size_t j = static_cast<std::size_t>(id);
        const std::int64_t volatile_work = done_[j] - committed_done_[j];
        if (volatile_work <= 0) continue;
        if (!job_faults_.crashes(slot_, id, instance_.job(id).release(),
                                 volatile_work)) {
          continue;
        }
        const std::int64_t wasted = rollback_job(id);
        flows_.unrecord(id, wasted);
        ++result.stats.job_rollbacks;
        result.stats.wasted_subjob_slots += wasted;
        if (emitter_.active()) {
          emitter_.rollback(slot_, id, wasted, committed_total_);
        }
      }
    }

    picks.clear();
    double pick_seconds = 0.0;
    if (time_picks_) {
      WallTimer pick_timer;
      scheduler_.pick(view, picks);
      pick_seconds = pick_timer.elapsed_seconds();
    } else {
      scheduler_.pick(view, picks);
    }

    OTSCHED_CHECK(static_cast<int>(picks.size()) <= capacity_,
                  "scheduler '" << scheduler_.name() << "' picked "
                                << picks.size() << " subjobs with capacity "
                                << capacity_ << " (m = " << m_
                                << ") at slot " << slot_);
    // Validate readiness and uniqueness, then execute.
    for (const SubjobRef& ref : picks) {
      OTSCHED_CHECK(ref.job >= 0 && ref.job < n,
                    "pick references unknown job " << ref.job);
      const std::size_t j = static_cast<std::size_t>(ref.job);
      const Dag& dag = instance_.job(ref.job).dag();
      OTSCHED_CHECK(ref.node >= 0 && ref.node < dag.node_count(),
                    "pick references unknown node " << ref.node << " of job "
                                                    << ref.job);
      OTSCHED_CHECK(arrived(ref.job), "job " << ref.job
                                             << " picked before arrival at slot "
                                             << slot_);
      OTSCHED_CHECK(!executed_[j][static_cast<std::size_t>(ref.node)],
                    "job " << ref.job << " node " << ref.node
                           << " picked twice (slot " << slot_ << ")");
      OTSCHED_CHECK(
          pending_in_[j][static_cast<std::size_t>(ref.node)] == 0 &&
              ready_pos_[j][static_cast<std::size_t>(ref.node)] != kInvalidNode,
          "job " << ref.job << " node " << ref.node
                 << " is not ready at slot " << slot_);
    }
    if (emitter_.active()) {
      // The pre-execution flush: the baseline pays an O(alive) sweep for
      // the ready width the incremental engine tracks as a counter.
      std::int64_t ready_width = 0;
      for (const JobId id : alive_) {
        ready_width +=
            static_cast<std::int64_t>(ready_[static_cast<std::size_t>(id)]
                                          .size());
      }
      emitter_.pick_block(slot_, picks,
                          static_cast<std::int64_t>(alive_.size()),
                          ready_width, pick_seconds);
    }
    // Same-slot duplicate picks are caught by the executed_ flag flipping
    // during execution below.
    for (const SubjobRef& ref : picks) {
      OTSCHED_CHECK(!executed_[static_cast<std::size_t>(ref.job)]
                              [static_cast<std::size_t>(ref.node)],
                    "duplicate pick of job " << ref.job << " node "
                                             << ref.node << " in slot "
                                             << slot_);
      execute(ref);
      if (job_faults_.active() && finished(ref.job)) {
        // Implicit finish-commit at the point of finish, as in the
        // incremental engine (not counted in stats.checkpoints).
        const std::int64_t newly = commit_job(ref.job);
        committed_total_ += newly;
        if (emitter_.active()) {
          emitter_.checkpoint(slot_, ref.job, newly, committed_total_);
        }
      }
      flows_.record(slot_, ref.job);
      if (record_full_) result.schedule->place(slot_, ref);
    }
    if (job_faults_.active()) {
      // The CHECKPOINT step: interval-policy commits at end of slot for
      // every alive unfinished job with volatile work.
      for (const JobId id : alive_) {
        if (finished(id)) continue;
        const std::size_t j = static_cast<std::size_t>(id);
        const std::int64_t volatile_work = done_[j] - committed_done_[j];
        if (!job_faults_.checkpoint_due(slot_, volatile_work)) continue;
        const std::int64_t newly = commit_job(id);
        committed_total_ += newly;
        ++result.stats.checkpoints;
        if (emitter_.active()) {
          emitter_.checkpoint(slot_, id, newly, committed_total_);
        }
      }
    }
    if (emitter_.active() && !completed_now_.empty()) {
      // Ascending job id, matching DeriveTrace's completion order.
      std::sort(completed_now_.begin(), completed_now_.end());
      for (const JobId id : completed_now_) {
        emitter_.complete(slot_, id);
      }
      completed_now_.clear();
    }
    if (emitter_.active()) emitter_.slot_end();
    if (!picks.empty()) {
      ++result.stats.busy_slots;
      last_busy_slot_ = slot_;
    }
    refresh_alive();
    ++slot_;
  }

  // Stats and flows are computed online in BOTH record modes, mirroring
  // the incremental engine (sim/engine.cc).
  result.stats.horizon = last_busy_slot_;
  result.stats.executed_subjobs = executed_total_;
  // Wasted (rolled-back) subjob slots occupied processors too.
  std::int64_t processor_slots = 0;
  OTSCHED_CHECK(!__builtin_mul_overflow(static_cast<std::int64_t>(m_),
                                        last_busy_slot_, &processor_slots),
                "m * horizon = " << m_ << " * " << last_busy_slot_
                                 << " processor-slots overflow int64");
  result.stats.idle_processor_slots =
      processor_slots - executed_total_ - result.stats.wasted_subjob_slots;
  result.flows = flows_.finish();
  if (observer_ != nullptr) observer_->on_finish(result);
  return result;
}

}  // namespace

SimResult ReferenceSimulate(const Instance& instance, int m,
                            Scheduler& scheduler, const RunContext& context) {
  ReferenceEngine engine(instance, m, scheduler, context);
  return engine.run();
}

}  // namespace otsched
