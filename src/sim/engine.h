// The discrete-time online scheduling engine.
//
// The engine owns ground truth — which subjobs have executed, which are
// ready, which jobs are alive — and drives an online Scheduler slot by
// slot.  The scheduler sees the world only through a SchedulerView:
//
//  * non-clairvoyant schedulers (FIFO, Section 6) may look at ready subjob
//    ids, job release times, and progress counters;
//  * clairvoyant schedulers (LPF, Algorithm A, Section 5) may additionally
//    inspect the full DAG of any ARRIVED job.  The view enforces this: a
//    scheduler that did not declare clairvoyance aborts if it touches a
//    DAG, so experimental claims about non-clairvoyance are checked by
//    construction, not by convention.
//
// The engine re-validates every pick (readiness, capacity, no duplicates),
// so a buggy policy cannot fabricate an infeasible schedule; the resulting
// Schedule can additionally be re-checked by ScheduleValidator.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "job/instance.h"
#include "sim/observer.h"
#include "sim/schedule.h"

namespace otsched {

/// Backend interface behind SchedulerView.  SimDriver (sim/driver.h) and
/// the reference engine both implement it, so every Scheduler runs
/// unchanged against either.
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;
  virtual Time slot() const = 0;
  virtual int m() const = 0;
  /// Effective processor budget of the current slot, m_t <= m (fault
  /// injection; sim/faults.h).  Equals m() on fault-free runs.
  virtual int capacity() const { return m(); }
  virtual JobId job_count() const = 0;
  virtual std::span<const JobId> alive() const = 0;
  virtual Time release(JobId id) const = 0;
  virtual bool arrived(JobId id) const = 0;
  virtual bool finished(JobId id) const = 0;
  virtual std::span<const NodeId> ready(JobId id) const = 0;
  virtual std::int64_t remaining_work(JobId id) const = 0;
  virtual std::int64_t done_work(JobId id) const = 0;
  virtual bool executed(JobId id, NodeId v) const = 0;
  virtual const Dag& dag(JobId id) const = 0;
  virtual const DagMetrics& metrics(JobId id) const = 0;
  virtual bool clairvoyant_allowed() const = 0;
};

/// Flat tables behind SchedulerView's zero-dispatch fast path.  A backend
/// that keeps its hot state in stable arrays (SimDriver; see ReadyArena
/// in sim/ready_state.h) publishes them here so the accessors schedulers
/// hammer in their inner loops — ready(), alive(), remaining_work() —
/// compile to inline array reads instead of virtual calls.  The reference
/// engine passes null and SchedulerView falls back to the virtual
/// EngineBackend.  The publishing engine must refresh slot/capacity/alive
/// each slot; the per-job pointers are stable for the whole run.
struct EngineHotState {
  Time slot = 0;
  int m = 0;
  int capacity = 0;
  const JobId* alive = nullptr;           // arrived & unfinished, FIFO order
  std::size_t alive_count = 0;
  const NodeId* ready_base = nullptr;     // ReadyArena storage
  const std::int64_t* node_off = nullptr; // job -> region base
  const std::int32_t* ready_len = nullptr;
  const std::int64_t* done = nullptr;     // per-job executed count
  const std::int32_t* work = nullptr;     // per-job total work (nodes)
  const Time* release = nullptr;          // per-job release time
};

/// Read-only window onto the engine state exposed to schedulers.
class SchedulerView {
 public:
  explicit SchedulerView(const EngineBackend& backend,
                         const EngineHotState* hot = nullptr)
      : backend_(backend), hot_(hot) {}

  /// The slot currently being filled (1-based).
  Time slot() const {
    return hot_ != nullptr ? hot_->slot : backend_.slot();
  }

  int m() const { return hot_ != nullptr ? hot_->m : backend_.m(); }

  /// Processors actually available in the current slot (m_t <= m; equals
  /// m() unless fault injection is active).  Policies must bound their
  /// picks by this, not by m() — the engine validates against it.
  int capacity() const {
    return hot_ != nullptr ? hot_->capacity : backend_.capacity();
  }

  JobId job_count() const;

  /// Jobs that have arrived (release < slot) and are unfinished, sorted by
  /// (release, id): exactly the FIFO priority order.
  std::span<const JobId> alive() const {
    if (hot_ != nullptr) return {hot_->alive, hot_->alive_count};
    return backend_.alive();
  }

  Time release(JobId id) const {
    if (hot_ != nullptr) return hot_->release[static_cast<std::size_t>(id)];
    return backend_.release(id);
  }
  bool arrived(JobId id) const;
  bool finished(JobId id) const {
    if (hot_ != nullptr) {
      return hot_->done[static_cast<std::size_t>(id)] ==
             hot_->work[static_cast<std::size_t>(id)];
    }
    return backend_.finished(id);
  }

  /// Ready subjobs of `id`: released, all predecessors completed in a
  /// strictly earlier slot, not yet executed.
  std::span<const NodeId> ready(JobId id) const {
    if (hot_ != nullptr) {
      const std::size_t i = static_cast<std::size_t>(id);
      return {hot_->ready_base + hot_->node_off[i],
              static_cast<std::size_t>(hot_->ready_len[i])};
    }
    return backend_.ready(id);
  }

  /// Number of subjobs of `id` not yet executed.
  std::int64_t remaining_work(JobId id) const {
    if (hot_ != nullptr) {
      const std::size_t i = static_cast<std::size_t>(id);
      return hot_->work[i] - hot_->done[i];
    }
    return backend_.remaining_work(id);
  }
  /// Number of subjobs of `id` already executed.
  std::int64_t done_work(JobId id) const {
    if (hot_ != nullptr) return hot_->done[static_cast<std::size_t>(id)];
    return backend_.done_work(id);
  }

  /// Whether a specific subjob has been executed (non-clairvoyant
  /// schedulers may only meaningfully ask this about discovered nodes, but
  /// the engine does not police per-node discovery).
  bool executed(JobId id, NodeId v) const;

  /// Full DAG access — clairvoyant schedulers only (aborts otherwise).
  const Dag& dag(JobId id) const;
  /// Cached metrics (heights/depths) — clairvoyant schedulers only.
  const DagMetrics& metrics(JobId id) const;

  bool clairvoyant_allowed() const;

 private:
  const EngineBackend& backend_;
  const EngineHotState* hot_ = nullptr;  // null = virtual fallback
};

/// Base class for all online scheduling policies.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Declares whether the policy needs to see job DAGs on arrival.
  virtual bool requires_clairvoyance() const { return false; }

  /// Declares whether the policy tolerates a per-slot capacity that
  /// fluctuates below m (fault injection; sim/faults.h).  Work-conserving
  /// policies that re-read view.capacity() every slot return true (the
  /// default); window-planning policies that precompute per-slot
  /// assignments for a fixed m (Algorithm A) return false, and the engine
  /// refuses to run them under an active fault model.
  virtual bool supports_fluctuating_capacity() const { return true; }

  /// Declares whether the policy tolerates job-side rollbacks
  /// (sim/job_faults.h), which un-execute subjobs and shrink ready sets
  /// between slots.  Policies that re-read view.ready() every pick return
  /// true (the default); policies that carry discovered subjobs across
  /// slots in their own queues (work stealing) would dispatch stale refs
  /// after a rollback and return false, and the engine refuses to run
  /// them under an active job-fault model.
  virtual bool supports_job_rollback() const { return true; }

  /// Declares whether the policy's decisions are a pure function of the
  /// current SchedulerView — no state carried across slots (RNG draws,
  /// restart phases, learned guesses).  Such a policy can be "warm
  /// started": resuming at a later slot with only the jobs live from
  /// then on reproduces the decisions a full-history run would make.
  /// The serve journal (serve/journal.h) only writes snapshot records —
  /// and so only allows `--journal-rotate` truncation — for policies
  /// that return true; everything else replays its full journal.
  /// Default false: statefulness is the safe assumption.
  virtual bool supports_warm_start() const { return false; }

  /// Called once before the run; `m` is fixed for the whole run.
  virtual void reset(int m, JobId job_count) {
    (void)m;
    (void)job_count;
  }

  /// Called when a job arrives, before pick() for the arrival slot.
  /// Arrival happens at slot release+1 (the first slot the job can run).
  virtual void on_arrival(JobId id, const SchedulerView& view) {
    (void)id;
    (void)view;
  }

  /// Chooses at most view.capacity() ready subjobs to run in view.slot()
  /// (== view.m() on fault-free runs).  The engine validates every
  /// choice.
  virtual void pick(const SchedulerView& view,
                    std::vector<SubjobRef>& out) = 0;
};

// SimOptions / ClairvoyanceOverride / RunObserver / RunContext live in
// sim/observer.h (included above): the run API is one header.

/// The one run-capability gate: "" when `scheduler` can run under
/// `options`, else a one-line reason.  Processor faults need a policy
/// that re-reads the per-slot capacity; job faults need flow-only
/// recording and a policy that re-reads ready sets every slot.  Every
/// engine CHECKs it; drivers (CLI, fuzzer) ask it first and refuse
/// up front.
std::string RunSupportError(const Scheduler& scheduler,
                            const SimOptions& options);

/// The auto horizon (SimOptions::max_horizon == 0) of a fixed-instance
/// run.  Any policy that executes at least one ready subjob whenever one
/// exists finishes well within it; schedulers that stall (e.g. a broken
/// Algorithm A window plan) hit the engine's check instead of hanging.
/// Faulted runs can serve far below m and re-execute rolled-back work,
/// so they get 64x work (crash rates are capped at 0.9); a job-fault
/// spec that crashes faster than its checkpoint policy commits
/// (livelock) still hits the bound, which is the intended detection.
/// Drivers that must know whether m * horizon fits int64 (the engines'
/// processor-slot count) evaluate it as AutoHorizon<__int128>.
template <typename Int = Time>
Int AutoHorizon(std::type_identity_t<Int> max_release,
                std::type_identity_t<Int> total_work,
                std::type_identity_t<Int> max_span, bool faulted) {
  return faulted ? max_release + 64 * total_work + max_span + 65536
                 : max_release + 4 * total_work + max_span + 1024;
}

struct SimStats {
  Time horizon = 0;
  std::int64_t executed_subjobs = 0;
  std::int64_t idle_processor_slots = 0;  // over [first arrival+1, horizon]
  std::int64_t busy_slots = 0;            // slots with at least one subjob
  // Fault injection (zero on fault-free runs):
  std::int64_t faulted_slots = 0;      // visited slots with capacity < m
  std::int64_t capacity_shortfall = 0;  // sum of (m - capacity) over them
  // Job faults (sim/job_faults.h; zero when job faults are off — part of
  // the kNoLostWorkWhenHealthy bit-identity contract):
  std::int64_t job_rollbacks = 0;        // crash events that lost work
  std::int64_t wasted_subjob_slots = 0;  // volatile subjobs rolled back
  std::int64_t checkpoints = 0;          // interval-policy commits (the
                                         // implicit finish-commit is free
                                         // and not counted)
};

struct SimResult {
  /// Present iff the run was recorded with RecordMode::kFull; flow-only
  /// runs leave it empty and carry only the aggregates below.
  std::optional<Schedule> schedule;
  FlowSummary flows;
  SimStats stats;

  bool has_schedule() const { return schedule.has_value(); }

  /// The materialized schedule; aborts on a flow-only result.  Call sites
  /// using this structurally need the explicit schedule (Section 5/6
  /// checkers, validators, traces, renderers).
  const Schedule& full_schedule() const;
};

/// Runs `scheduler` on `instance` with m processors to completion,
/// streaming SlotEvent batches to `context.observer` (if any) as the run
/// progresses.
/// The ONLY entry point: bare SimOptions (and nothing at all) convert
/// into a RunContext, so observer-less call sites need no overload.
SimResult Simulate(const Instance& instance, int m, Scheduler& scheduler,
                   const RunContext& context = {});

/// The pre-incremental seed engine, preserved as the golden baseline
/// (sim/engine_reference.cc) and instrumented with the same observer
/// hooks.  Only for the engine-equivalence gate and before/after
/// benchmarks; production callers use Simulate().
SimResult ReferenceSimulate(const Instance& instance, int m,
                            Scheduler& scheduler,
                            const RunContext& context = {});

}  // namespace otsched
