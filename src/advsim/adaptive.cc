#include "advsim/adaptive.h"

#include <algorithm>

#include "common/assert.h"
#include "common/timer.h"
#include "sim/validator.h"

namespace otsched {
namespace {

class AdaptiveEngine final : public EngineBackend {
 public:
  AdaptiveEngine(Scheduler& scheduler, const AdaptiveAdversaryOptions& options,
                 const RunContext& context)
      : scheduler_(scheduler),
        observer_(context.observer),
        batch_capacity_(context.batch_capacity),
        sequencer_(context.options.faults, options.m),
        m_(options.m),
        layers_(options.layers_per_job > 0 ? options.layers_per_job
                                           : options.m),
        width_(options.m + 1),
        gap_(options.gap > 0 ? options.gap : options.m + 2),
        num_jobs_(options.num_jobs) {
    OTSCHED_CHECK(m_ >= 2);
    OTSCHED_CHECK(num_jobs_ >= 1);
    OTSCHED_CHECK(layers_ >= 1);
    record_full_ = context.options.record == RecordMode::kFull;
    capacity_ = m_;
    const std::string unsupported =
        RunSupportError(scheduler, context.options);
    OTSCHED_CHECK(unsupported.empty(), unsupported);
    const bool faulted = sequencer_.active();
    max_horizon_ = context.options.max_horizon > 0
                       ? context.options.max_horizon
                       : (num_jobs_ * gap_ +
                          (faulted ? 64 : 8) * num_jobs_ *
                              layers_ * width_ +
                          (faulted ? 65536 : 1024));
  }

  AdaptiveAdversaryResult run();

  /// All jobs finished (the adversary's termination condition is
  /// finished jobs, not executed work: layers open lazily, so total
  /// work is only known once every key has been crowned).
  bool idle() const { return finished_jobs_ == num_jobs_; }

  // --- EngineBackend ---
  Time slot() const override { return slot_; }
  int m() const override { return m_; }
  int capacity() const override { return capacity_; }
  JobId job_count() const override {
    return static_cast<JobId>(num_jobs_);
  }
  std::span<const JobId> alive() const override { return alive_; }
  Time release(JobId id) const override { return id * gap_; }
  bool arrived(JobId id) const override { return release(id) < slot_; }
  bool finished(JobId id) const override {
    return jobs_[static_cast<std::size_t>(id)].done_layers == layers_;
  }
  std::span<const NodeId> ready(JobId id) const override {
    const JobState& job = jobs_[static_cast<std::size_t>(id)];
    if (!arrived(id) || job.done_layers == layers_ || !job.layer_open) {
      return {};
    }
    return job.ready;
  }
  std::int64_t remaining_work(JobId id) const override {
    return static_cast<std::int64_t>(layers_) * width_ -
           jobs_[static_cast<std::size_t>(id)].done_nodes;
  }
  std::int64_t done_work(JobId id) const override {
    return jobs_[static_cast<std::size_t>(id)].done_nodes;
  }
  bool executed(JobId id, NodeId v) const override {
    const JobState& job = jobs_[static_cast<std::size_t>(id)];
    return v >= 0 && static_cast<std::size_t>(v) < job.executed.size() &&
           job.executed[static_cast<std::size_t>(v)] != 0;
  }
  const Dag& dag(JobId) const override {
    OTSCHED_CHECK(false,
                  "the adaptive adversary plays non-clairvoyant schedulers "
                  "only; job DAGs do not exist until the run finishes");
  }
  const DagMetrics& metrics(JobId) const override {
    OTSCHED_CHECK(false, "no metrics in the adaptive environment");
  }
  bool clairvoyant_allowed() const override { return false; }

 private:
  struct JobState {
    int done_layers = 0;
    bool layer_open = false;       // current layer's subjobs are ready
    std::vector<NodeId> ready;     // unexecuted nodes of the open layer
    std::vector<char> executed;    // over all layers_ * width_ node ids
    std::int64_t done_nodes = 0;
    std::vector<NodeId> keys;      // chosen key per finished layer
    Time completion = kNoTime;
  };

  void open_next_layer(JobId id);

  // The tick shape (mirrors SimDriver's begin/advance/drain): begin()
  // arms the run, step_slot() simulates exactly one slot, finalize()
  // materializes the instance and proves consistency.  run() is the
  // thin driver loop over them.
  void begin();
  void step_slot(const SchedulerView& view);
  AdaptiveAdversaryResult finalize();

  Scheduler& scheduler_;
  RunObserver* observer_ = nullptr;  // borrowed; null = uninstrumented run
  std::size_t batch_capacity_;       // event-ring size (RunContext)
  SlotEventEmitter emitter_;         // batched event stream writer
  bool time_picks_ = false;          // observer wants pick_seconds?
  BudgetSequencer sequencer_;        // per-slot capacity source
  int capacity_ = 1;                 // current slot's budget, m_t <= m
  std::int64_t faulted_slots_ = 0;      // visited slots with capacity < m
  std::int64_t capacity_shortfall_ = 0; // sum of (m - capacity) over them
  bool record_full_ = true;          // materialize the Schedule?
  int m_;
  int layers_;
  int width_;   // m + 1 subjobs per layer
  Time gap_;
  std::int64_t num_jobs_;
  Time max_horizon_ = 0;

  Time slot_ = 0;
  Time last_busy_slot_ = 0;          // online horizon (== schedule horizon)
  std::int64_t executed_total_ = 0;
  std::int64_t busy_slots_ = 0;
  std::vector<JobState> jobs_;
  std::vector<JobId> alive_;
  std::int64_t next_arrival_ = 0;
  std::int64_t finished_jobs_ = 0;
  std::int64_t max_alive_ = 0;
  std::optional<Schedule> schedule_;  // record_full_ only

  // Per-slot scratch (members so step_slot never reallocates).
  std::vector<SubjobRef> picks_;
  std::vector<std::pair<JobId, NodeId>> last_in_layer_;
  std::vector<JobId> completed_now_;  // observer-only
};

void AdaptiveEngine::open_next_layer(JobId id) {
  JobState& job = jobs_[static_cast<std::size_t>(id)];
  OTSCHED_CHECK(!job.layer_open);
  OTSCHED_CHECK(job.done_layers < layers_);
  job.layer_open = true;
  job.ready.clear();
  const NodeId base = static_cast<NodeId>(job.done_layers) * width_;
  for (NodeId v = base; v < base + width_; ++v) job.ready.push_back(v);
}

void AdaptiveEngine::begin() {
  jobs_.assign(static_cast<std::size_t>(num_jobs_), JobState{});
  for (JobState& job : jobs_) {
    job.executed.assign(
        static_cast<std::size_t>(layers_) * static_cast<std::size_t>(width_),
        0);
  }
  scheduler_.reset(m_, static_cast<JobId>(num_jobs_));
  if (record_full_) schedule_.emplace(m_);
  emitter_.reset(this, observer_, batch_capacity_);
  time_picks_ = observer_ != nullptr && observer_->wants_pick_timing();
  if (observer_ != nullptr) observer_->on_run_begin(*this);
  slot_ = 1;
}

void AdaptiveEngine::step_slot(const SchedulerView& view) {
  if (alive_.empty() && next_arrival_ < num_jobs_) {
    slot_ = std::max(slot_, next_arrival_ * gap_ + 1);
  }
  OTSCHED_CHECK(slot_ <= max_horizon_,
                "scheduler '" << scheduler_.name()
                              << "' exceeded the adversary horizon");
  if (emitter_.active()) emitter_.slot_begin(slot_);
  while (next_arrival_ < num_jobs_ && next_arrival_ * gap_ < slot_) {
    const JobId id = static_cast<JobId>(next_arrival_++);
    alive_.push_back(id);
    open_next_layer(id);
    scheduler_.on_arrival(id, view);
    if (emitter_.active()) emitter_.arrival(slot_, id);
  }
  max_alive_ = std::max(max_alive_, static_cast<std::int64_t>(alive_.size()));

  if (sequencer_.active()) {
    // Same resolution point as the fixed-instance engines: after the
    // slot's arrivals, before the pick.  The adversarial-dip model
    // feeds on the same alive counter the Section 4 argument tracks.
    const int cap = sequencer_.capacity(
        slot_, static_cast<std::int64_t>(alive_.size()));
    if (cap != capacity_) {
      capacity_ = cap;
      if (emitter_.active()) emitter_.capacity_change(slot_, capacity_);
    }
    if (capacity_ < m_) {
      ++faulted_slots_;
      capacity_shortfall_ += m_ - capacity_;
    }
  }

  picks_.clear();
  double pick_seconds = 0.0;
  if (time_picks_) {
    WallTimer pick_timer;
    scheduler_.pick(view, picks_);
    pick_seconds = pick_timer.elapsed_seconds();
  } else {
    scheduler_.pick(view, picks_);
  }
  OTSCHED_CHECK(static_cast<int>(picks_.size()) <= capacity_,
                "scheduler picked " << picks_.size() << " with capacity "
                                    << capacity_ << " (m = " << m_
                                    << ")");
  if (emitter_.active()) {
    // The pre-execution flush: nothing has mutated the ready sets the
    // scheduler saw, so observers see exactly that state; an invalid
    // pick aborts in the validate/execute loop below, so observers never
    // outlive one.
    std::int64_t ready_width = 0;
    for (const JobId id : alive_) {
      ready_width += static_cast<std::int64_t>(ready(id).size());
    }
    emitter_.pick_block(slot_, picks_,
                        static_cast<std::int64_t>(alive_.size()),
                        ready_width, pick_seconds);
  }

  // Validate, execute, and track layer completions.
  last_in_layer_.clear();
  for (const SubjobRef& ref : picks_) {
    OTSCHED_CHECK(ref.job >= 0 && ref.job < job_count(),
                  "pick references unknown job " << ref.job);
    JobState& job = jobs_[static_cast<std::size_t>(ref.job)];
    OTSCHED_CHECK(arrived(ref.job), "picked before arrival");
    // The node must be in the open layer's ready set.
    auto it = std::find(job.ready.begin(), job.ready.end(), ref.node);
    OTSCHED_CHECK(job.layer_open && it != job.ready.end(),
                  "job " << ref.job << " node " << ref.node
                         << " is not ready at slot " << slot_);
    // Layers completed this slot only open AFTER the pick loop, so a
    // key's children can never run in the slot the key completes —
    // readiness is correct by construction.
    job.ready.erase(it);
    job.executed[static_cast<std::size_t>(ref.node)] = 1;
    ++job.done_nodes;
    ++executed_total_;
    if (record_full_) schedule_->place(slot_, ref);
    if (job.ready.empty()) {
      last_in_layer_.emplace_back(ref.job, ref.node);
    }
  }
  // Layers that completed this slot: crown the LAST pick of the layer
  // in this slot as the key, then open the next layer (ready from the
  // next slot).
  for (const auto& [job_id, last_node] : last_in_layer_) {
    JobState& job = jobs_[static_cast<std::size_t>(job_id)];
    job.keys.push_back(last_node);
    ++job.done_layers;
    job.layer_open = false;
    if (job.done_layers == layers_) {
      job.completion = slot_;
      ++finished_jobs_;
      if (emitter_.active()) completed_now_.push_back(job_id);
    } else {
      open_next_layer(job_id);
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
  if (!picks_.empty()) {
    ++busy_slots_;
    last_busy_slot_ = slot_;
  }
  std::erase_if(alive_, [this](JobId id) { return finished(id); });
  ++slot_;
}

AdaptiveAdversaryResult AdaptiveEngine::finalize() {
  AdaptiveAdversaryResult result;
  result.schedule = std::move(schedule_);
  result.certified_opt_upper = gap_;
  result.max_alive = max_alive_;

  // Materialize the instance with the chosen keys wired in.
  for (std::int64_t j = 0; j < num_jobs_; ++j) {
    const JobState& job = jobs_[static_cast<std::size_t>(j)];
    Dag::Builder builder(static_cast<NodeId>(layers_) * width_);
    for (int layer = 0; layer + 1 < layers_; ++layer) {
      const NodeId key = job.keys[static_cast<std::size_t>(layer)];
      const NodeId next_base = static_cast<NodeId>(layer + 1) * width_;
      for (NodeId v = next_base; v < next_base + width_; ++v) {
        builder.add_edge(key, v);
      }
    }
    result.instance.add_job(Job(std::move(builder).build(), j * gap_,
                                "adaptive-" + std::to_string(j)));
    result.keys.push_back(job.keys);
  }
  result.instance.set_name("adaptive-adversary-m" + std::to_string(m_));

  if (record_full_) {
    // The produced schedule must be a feasible schedule of the
    // materialized instance — this is the consistency proof of the
    // adversary.  Flow-only runs skip it along with the schedule; every
    // pick was still validated against the adversary's ready sets above.
    const ValidationReport report =
        ValidateSchedule(*result.schedule, result.instance);
    OTSCHED_CHECK(report.feasible,
                  "adaptive adversary inconsistency: " << report.violation);
  }
  // Flows are tracked online (JobState::completion is the slot the final
  // layer finished, i.e. the job's last executed subjob), identically in
  // both record modes; full-mode ComputeFlows over the schedule yields
  // the same summary, as the adversary tests pin.
  {
    const std::size_t n = static_cast<std::size_t>(num_jobs_);
    result.flows.completion.resize(n, kNoTime);
    result.flows.flow.resize(n, kInfiniteTime);
    for (JobId id = 0; id < job_count(); ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      result.flows.completion[i] = jobs_[i].completion;
      result.flows.flow[i] = jobs_[i].completion - release(id);
      if (result.flows.max_flow_job == kInvalidJob ||
          result.flows.flow[i] > result.flows.max_flow) {
        result.flows.max_flow = result.flows.flow[i];
        result.flows.max_flow_job = id;
      }
    }
  }
  result.max_flow = result.flows.max_flow;
  if (observer_ != nullptr) {
    // Assemble the same on_finish payload Simulate would have produced
    // for this run (schedule present only in full mode).
    SimResult summary{result.schedule, result.flows, {}};
    summary.stats.horizon = last_busy_slot_;
    summary.stats.executed_subjobs = executed_total_;
    summary.stats.idle_processor_slots =
        static_cast<std::int64_t>(m_) * last_busy_slot_ - executed_total_;
    summary.stats.busy_slots = busy_slots_;
    summary.stats.faulted_slots = faulted_slots_;
    summary.stats.capacity_shortfall = capacity_shortfall_;
    observer_->on_finish(summary);
  }
  return result;
}

AdaptiveAdversaryResult AdaptiveEngine::run() {
  begin();
  SchedulerView view(*this);
  while (!idle()) step_slot(view);
  return finalize();
}

}  // namespace

const Schedule& AdaptiveAdversaryResult::full_schedule() const {
  OTSCHED_CHECK(schedule.has_value(),
                "full_schedule() on a flow-only adversary run (rerun with "
                "RecordMode::kFull)");
  return *schedule;
}

AdaptiveAdversaryResult RunAdaptiveAdversary(
    Scheduler& scheduler, const AdaptiveAdversaryOptions& options,
    const RunContext& context) {
  OTSCHED_CHECK(!scheduler.requires_clairvoyance(),
                "the adaptive adversary only plays non-clairvoyant "
                "schedulers; '"
                    << scheduler.name() << "' declares clairvoyance");
  OTSCHED_CHECK(!context.options.job_faults.active(),
                "the adaptive adversary does not model job faults (run a "
                "fixed instance through Simulate instead)");
  AdaptiveEngine engine(scheduler, options, context);
  return engine.run();
}

}  // namespace otsched
