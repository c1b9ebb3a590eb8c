// The incremental tick/advance engine core.
//
// SimDriver is the one simulation loop in the library: it owns the
// ReadyArena / EngineHotState / SlotEventEmitter state the former
// monolithic Engine owned, but exposes the run as an incremental API
// instead of a single run-to-horizon call:
//
//   SimDriver driver(m, scheduler, context);
//   driver.submit(Job(...));        // any time before or between advances
//   driver.advance(n);              // simulate at most n slots
//   driver.take_finished();         // per-job {release, finish, flow}
//   driver.retire_finished();       // recycle finished jobs' memory
//   SimResult result = driver.drain();  // run to completion, finalize
//
// submit() is the only way in: Simulate() (sim/engine.h) is submit_all
// (a loop over submit) + drain, so a batch run and a stream are the same
// code; the driver-equivalence suite additionally proves advance(1)
// stepping is bit-identical to one-shot Simulate across policies, record
// modes, observers, and fault models.
//
// Streaming semantics (the `otsched serve` daemon, src/serve):
//   * submit() may be called between advances; the job's release must be
//     >= now() (a release in the simulated past would diverge from an
//     offline replay of the same arrival stream).  Jobs arrive in
//     (release, id) order whatever order they were submitted in — the
//     order Instance::release_order() gives.
//   * retire_finished() recycles finished jobs' DAG node regions through
//     the ReadyArena free list and drops the driver's Job copies, so an
//     unbounded stream runs in memory proportional to the live width of
//     the stream plus O(1) residual per job (release, finish slot, region
//     base).  Retired jobs answer release/finished/done_work queries
//     but no longer expose ready sets, DAGs, or metrics.
//
// Held subjobs (the adaptive adversary, src/advsim): submit(job, shown)
// keeps every subjob with id >= shown out of the ready set until
// reveal() releases it, and exhausted() reports each job whose ready set
// ran dry while it still held subjobs.  A static DAG's ready set empties
// exactly when its job finishes, so it never appears there.  Job faults
// refuse holds: a rollback rebuilds pending counts from the DAG alone.
//
// The slot loop body is the PR-7 saturated hot path, unchanged: one
// templated instantiation per (observed, record-full) mode, batched
// observer delivery, flat-array scheduler reads via EngineHotState.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "job/instance.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/observer.h"
#include "sim/ready_state.h"
#include "sim/schedule.h"

namespace otsched {

class SimDriver final : public EngineBackend {
 public:
  /// A job that ran its last subjob, reported once via take_finished().
  struct FinishedJob {
    JobId job = kInvalidJob;
    Time release = 0;
    Time finish = 0;  // the slot its last subjob executed in
    Time flow = 0;    // finish - release
    NodeId last = kInvalidNode;  // the subjob whose execution finished it
    /// Subjob slots this job lost to rollbacks over its lifetime (job
    /// faults, sim/job_faults.h; always 0 on healthy runs).
    std::int64_t wasted = 0;

    friend bool operator==(const FinishedJob&, const FinishedJob&) = default;
  };

  /// `m` processors, one `scheduler`, one `context` — the same contract
  /// as Simulate, minus the instance: jobs are submitted, not bound.
  SimDriver(int m, Scheduler& scheduler, const RunContext& context = {});

  /// Submits a copy of every job of `instance`, in id order, after
  /// reserving the driver's and the arena's tables for all of them.
  void submit_all(const Instance& instance);

  /// Submits one job (the driver takes ownership).  Valid before the
  /// first advance and between advances; the release must be >= now().
  /// Returns the job's dense id.
  JobId submit(Job job) {
    const NodeId shown = job.dag().node_count();
    return submit(std::move(job), shown);
  }

  /// As submit(job), holding every subjob with id >= `shown` until
  /// reveal() releases it.
  JobId submit(Job job, NodeId shown);

  /// Releases held subjobs [first, first + count) of an arrived job into
  /// its ready set (increasing id, pickable from the next slot).  `first`
  /// must be the job's first still-held subjob.  Between advances only.
  void reveal(JobId job, NodeId first, NodeId count);

  /// Subjobs whose execution in the last advance() emptied their job's
  /// ready set while the job still held subjobs, in execution order.
  std::span<const SubjobRef> exhausted() const { return exhausted_; }

  /// Snapshot hook for the serve journal's rotation (serve/journal.h):
  /// positions a FRESH driver (nothing submitted, nothing advanced) so
  /// now() == resume_slot, as if it had already simulated through that
  /// slot.  Only sound when the resumed stream is a quiescent suffix —
  /// every earlier job finished, its flow accounted for elsewhere — and
  /// the scheduler's decisions are a pure function of the current view
  /// (Scheduler::supports_warm_start); a stateful policy would have
  /// carried state across the cut that a warm start cannot rebuild.
  void warm_start(Time resume_slot);

  /// Simulates at most `max_slots` further slots (fast-forwarded empty
  /// stretches count as one).  Returns the number of slots visited: 0
  /// means the driver is idle (all submitted work done).
  Time advance(Time max_slots);

  /// Runs until all submitted work is done, finalizes stats and flows,
  /// fires on_finish, and returns the result.  The driver is spent
  /// afterwards: no further submit/advance calls.
  SimResult drain();

  /// All submitted work executed (also true before the first submit).
  bool idle() const { return executed_total_ == total_work_; }

  /// Last fully simulated slot (0 before the first advance).
  Time now() const { return slot_ > 0 ? slot_ - 1 : 0; }

  /// Jobs that finished since the previous call, in completion order
  /// (ties: pick placement order within the slot).
  std::vector<FinishedJob> take_finished();

  /// Recycles the arena regions and Job storage of every job that
  /// finished since the previous call.  Returns how many jobs were
  /// retired.
  std::size_t retire_finished();

  /// Outstanding (submitted, unexecuted) subjobs.
  std::int64_t pending_work() const { return total_work_ - executed_total_; }

  /// Engine-wide checkpoint-committed subjob count (job faults only;
  /// stays 0 on healthy runs, where commit tracking is never enabled).
  /// Equals executed_subjobs at drain() — every job finish-commits.
  std::int64_t committed_frontier() const { return committed_total_; }

  /// Arena introspection for the retire-on-finish memory bound: node
  /// slots currently backing the driver (live + recyclable).
  std::int64_t arena_nodes() const { return arena_.node_capacity(); }

  // --- EngineBackend implementation ---
  Time slot() const override { return slot_; }
  int m() const override { return m_; }
  int capacity() const override { return capacity_; }
  JobId job_count() const override {
    return static_cast<JobId>(jobs_.size());
  }
  std::span<const JobId> alive() const override { return alive_; }
  Time release(JobId id) const override {
    return release_[static_cast<std::size_t>(id)];
  }
  bool arrived(JobId id) const override { return release(id) < slot_; }
  bool finished(JobId id) const override {
    return arena_.done(id) == arena_.nodes(id);
  }
  std::span<const NodeId> ready(JobId id) const override {
    return arena_.ready(id);
  }
  std::int64_t remaining_work(JobId id) const override {
    return arena_.nodes(id) - arena_.done(id);
  }
  std::int64_t done_work(JobId id) const override { return arena_.done(id); }
  bool executed(JobId id, NodeId v) const override {
    return arena_.is_executed(id, v);
  }
  const Dag& dag(JobId id) const override;
  const DagMetrics& metrics(JobId id) const override;
  bool clairvoyant_allowed() const override { return clairvoyant_; }

 private:
  template <bool kObserved, bool kRecordFull>
  Time run_slots(const SchedulerView& view, Time max_slots);

  template <bool kObserved>
  void deliver_arrivals(const SchedulerView& view);

  /// One-time run setup: publish the hot tables, reset the scheduler
  /// (with the job count submitted so far), arm the emitter, fire
  /// on_run_begin, enter slot 1.
  void begin();

  /// Re-points the EngineHotState tables (the backing vectors may have
  /// reallocated after submit/append).
  void publish_hot();

  /// The auto horizon bound over everything submitted so far (same
  /// formula the batch engine derived from its instance).
  Time horizon_bound() const;

  /// Release of the next undelivered arrival (arrivals_ sorted).
  Time next_release() const {
    return release_[static_cast<std::size_t>(arrivals_[next_arrival_])];
  }

  int m_;
  Scheduler& scheduler_;
  RunObserver* observer_ = nullptr;  // borrowed; null = uninstrumented run
  std::size_t batch_capacity_;       // event-ring size (RunContext)
  SlotEventEmitter emitter_;         // batched event stream writer
  bool clairvoyant_ = false;
  bool record_full_ = true;          // materialize the Schedule?
  Time options_horizon_ = 0;         // explicit cap; 0 = auto (running)
  BudgetSequencer sequencer_;        // per-slot capacity source
  int capacity_ = 1;                 // current slot's budget, m_t <= m
  JobFaultSequencer job_faults_;     // per-(slot, job) crash/commit source

  bool begun_ = false;
  bool finalized_ = false;
  Time slot_ = 0;
  Time last_busy_slot_ = 0;          // online horizon (== schedule horizon)
  SimResult result_;                 // schedule + stats accumulate here
  ReadyArena arena_;                 // SoA per-job ready/executed state
  EngineHotState hot_;               // SchedulerView fast-path tables

  // Per-job tables; work lives in the arena (arena_.nodes).  jobs_
  // entries (copies share the DAG block) and the dags_ cache of their
  // DAGs are dropped by retire_finished().
  std::vector<std::optional<Job>> jobs_;
  std::vector<const Dag*> dags_;
  std::vector<Time> release_;
  std::vector<Time> finish_;          // finish slot, kNoTime until then

  std::vector<JobId> alive_;          // arrived, unfinished, FIFO order
  // Undelivered arrivals from next_arrival_ on; sorted by (release, id)
  // at the next advance once a submission breaks that order.
  std::vector<JobId> arrivals_;
  std::size_t next_arrival_ = 0;
  bool arrivals_sorted_ = true;

  std::int64_t executed_total_ = 0;
  std::int64_t total_work_ = 0;       // over all submitted jobs
  std::int64_t committed_total_ = 0;  // engine-wide committed frontier
  std::vector<std::int64_t> wasted_;  // per-job rolled-back subjob count
                                      // (sized only under job faults)
  Time max_release_ = 0;              // running, for the auto horizon
  std::int64_t max_span_ = 0;         // running, for the auto horizon
  std::int64_t ready_width_ = 0;      // sum of ready counts over alive jobs
  bool time_picks_ = false;           // observer wants pick_seconds?
  int finished_this_slot_ = 0;        // gates alive-list compaction
  std::vector<JobId> completed_now_;  // observer-only: finished this slot
  std::vector<SubjobRef> picks_;      // per-slot scratch
  std::vector<SubjobRef> exhausted_;  // exhausted(): last advance only

  std::vector<FinishedJob> finished_log_;  // take_finished() backlog
  std::vector<JobId> retirable_;           // retire_finished() backlog
};

}  // namespace otsched
