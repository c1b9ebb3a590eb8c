// The run API: options, observers, and the RunContext that carries both.
//
// A RunObserver is the streaming counterpart of the post-hoc SimResult.
// Engines deliver the run as BATCHES of fixed-size POD SlotEvent records
// through one hook, `on_slot_batch` (one or two calls per visited slot).
// The stream carries the paper's per-slot protocol in a fixed order:
//
//   on_run_begin                          (once, before the first slot)
//   kSlotBegin -> kArrival* -> kCapacityChange? -> kRollback*
//              -> kPickBegin -> kExecute* -> kCheckpoint* -> kComplete*
//   on_finish                             (once, after flows are computed)
//
// Arrivals precede the slot's pick, executes follow it in placement
// order, and completes follow every execute of the slot in ascending job
// id — exactly the order DeriveTrace reconstructs post-hoc, so a
// streaming trace sink and the derived trace are interchangeable (and
// cross-checked as an oracle by the differential fuzz harness).
//
// Batch flush points (identical in every engine; see
// docs/OBSERVABILITY.md "The event stream"):
//   1. pre-execution — after the slot's pick is validated and appended,
//      before anything executes.  The engine state at this flush is
//      exactly what the scheduler saw.
//   2. end-of-slot — only if checkpoint or completion records are pending.
//   3. buffer-full — whenever appending would exceed the ring capacity
//      (RunContext::batch_capacity).  A pick block (kPickBegin plus its
//      kExecute records) is never split across batches.
// Batches never span slots.
//
// Observers are engine-side instrumentation, not policies: hooks receive
// the full EngineBackend and are not subject to the clairvoyance gate.
// A null observer costs one predictable branch per emit site; with no
// observer attached the engine is bit-identical to the uninstrumented
// one (enforced by tests/engine_equivalence_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "sim/faults.h"
#include "sim/job_faults.h"

namespace otsched {

class EngineBackend;
struct SimResult;

/// Overrides a scheduler's clairvoyance declaration for one run.  Tests
/// use kDeny to prove a policy never touches job DAGs (it would abort if
/// it did) and kAllow to grant DAG access to ad-hoc probes.
enum class ClairvoyanceOverride {
  kPolicyDefault,  // honour Scheduler::requires_clairvoyance()
  kDeny,           // run with DAG access disabled regardless
  kAllow,          // run with DAG access enabled regardless
};

/// What a run materializes.  Flows and stats are computed online in BOTH
/// modes (identically — see the engine-equivalence gate); the modes only
/// differ in whether the explicit Schedule is recorded.
enum class RecordMode {
  /// Record the full Schedule (O(total work) memory).  Needed by the
  /// Section 5/6 structure checkers, ScheduleValidator, DeriveTrace, and
  /// the renderers.
  kFull,
  /// Skip the Schedule; SimResult::schedule is empty and memory stays
  /// O(jobs + m).  The right mode for ratio/sweep/adversary runs, whose
  /// consumers only read FlowSummary / SimStats.
  kFlowOnly,
};

struct SimOptions {
  /// Hard cap on the simulated horizon; 0 means "auto" (a generous bound
  /// derived from the instance; exceeding it aborts, catching schedulers
  /// that stop making progress).
  Time max_horizon = 0;

  /// Clairvoyance override for this run (kPolicyDefault = ask the policy).
  ClairvoyanceOverride clairvoyance = ClairvoyanceOverride::kPolicyDefault;

  /// Whether to materialize the explicit schedule (kFull) or track flows
  /// incrementally only (kFlowOnly).
  RecordMode record = RecordMode::kFull;

  /// Processor fault injection: the per-slot capacity model m_t <= m
  /// (sim/faults.h).  The default kNone runs at full capacity and is
  /// bit-identical to a pre-fault engine.
  FaultSpec faults;

  /// Job fault injection: crash/rollback-to-checkpoint models
  /// (sim/job_faults.h).  The default kNone never crashes a job and
  /// leaves the engines bit-identical to the monotone-progress ones (the
  /// kNoLostWorkWhenHealthy contract).  An active spec requires
  /// RecordMode::kFlowOnly and a scheduler that survives rollbacks; see
  /// RunSupportError (sim/engine.h).
  JobFaultSpec job_faults;
};

/// One fixed-size POD record of the batched event stream.  Field use by
/// kind (unused fields hold their defaults):
///
///   kSlotBegin       slot
///   kArrival         slot, job
///   kCapacityChange  slot, value = new capacity
///   kPickBegin       slot, value = pick count, job = alive-job count,
///                    width = total ready width, seconds = pick() wall time
///   kExecute         slot, job, node   (the `value` kExecute records
///                    after a kPickBegin ARE the slot's pick list, in
///                    placement order)
///   kComplete        slot, job
///   kRollback        slot, job, value = wasted subjob count,
///                    width = engine-wide committed frontier after
///   kCheckpoint      slot, job, value = newly committed subjob count,
///                    width = engine-wide committed frontier after
///
/// Job-fault records (sim/job_faults.h) sit at fixed points of the slot:
/// kRollback fires in the pre-pick region (after kCapacityChange, before
/// kPickBegin); kCheckpoint fires after the slot's executes — at the
/// point of finish for the implicit finish-commit, before kComplete for
/// interval-policy commits.  Healthy runs emit neither kind.
struct SlotEvent {
  enum class Kind : std::int32_t {
    kSlotBegin,
    kArrival,
    kCapacityChange,
    kPickBegin,
    kExecute,
    kComplete,
    kRollback,
    kCheckpoint,
  };

  Kind kind = Kind::kSlotBegin;
  JobId job = kInvalidJob;
  NodeId node = kInvalidNode;
  std::int32_t value = 0;
  Time slot = 0;
  std::int64_t width = 0;
  double seconds = 0.0;

  friend bool operator==(const SlotEvent&, const SlotEvent&) = default;
};

/// Default size of the per-run event ring (RunContext::batch_capacity).
inline constexpr std::size_t kDefaultSlotBatchCapacity = 256;

/// The observer surface of both engines (SimDriver, behind Simulate and
/// the adaptive adversary, and ReferenceSimulate).  `on_slot_batch` is
/// the one event hook every sink implements; the run markers default to
/// no-ops.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Once, after schedulers are reset and before the first slot.
  virtual void on_run_begin(const EngineBackend& engine) { (void)engine; }

  /// A batch of SlotEvent records, delivered in stream order at the
  /// flush points documented in the header comment.  `engine` reflects
  /// the state at the flush (pre-execution for the batch carrying the
  /// slot's pick block).  Slots fast-forwarded over (nothing alive, no
  /// pending arrival due) are not visited and carry no records.
  virtual void on_slot_batch(const EngineBackend& engine,
                             std::span<const SlotEvent> events) = 0;

  /// Once, with the finished result (flows and stats computed).
  virtual void on_finish(const SimResult& result) { (void)result; }

  /// Whether this sink consumes kPickBegin's `seconds`.  Engines query it
  /// once per run and skip the two clock reads per slot when no attached
  /// observer wants the timing (the record then carries 0).  Defaults to
  /// true — opting out is a sink-side optimization.
  virtual bool wants_pick_timing() const { return true; }
};

/// Fans every hook out to a list of borrowed observers, in order.  The
/// one multiplexer, so engines only ever carry a single observer pointer.
class ObserverList final : public RunObserver {
 public:
  ObserverList() = default;
  void add(RunObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  bool empty() const { return observers_.empty(); }

  void on_run_begin(const EngineBackend& engine) override {
    for (RunObserver* o : observers_) o->on_run_begin(engine);
  }
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override {
    for (RunObserver* o : observers_) o->on_slot_batch(engine, events);
  }
  void on_finish(const SimResult& result) override {
    for (RunObserver* o : observers_) o->on_finish(result);
  }
  bool wants_pick_timing() const override {
    for (RunObserver* o : observers_) {
      if (o->wants_pick_timing()) return true;
    }
    return false;
  }

 private:
  std::vector<RunObserver*> observers_;
};

/// Engine-side writer of the batched event stream.  All three engines
/// append through this helper, so the flush discipline (and therefore
/// the batch boundaries every observer sees) is identical everywhere.
/// Inactive when no observer is attached: every append is behind one
/// predictable `active()` branch at the call site.
class SlotEventEmitter {
 public:
  /// Arms the emitter for one run.  `engine` is the backend passed to
  /// flushes (stable for the run); null `observer` leaves it inactive.
  void reset(const EngineBackend* engine, RunObserver* observer,
             std::size_t capacity) {
    engine_ = engine;
    observer_ = observer;
    capacity_ = capacity == 0 ? 1 : capacity;
    buffer_.clear();
    buffer_.reserve(capacity_);
  }

  bool active() const { return observer_ != nullptr; }

  void slot_begin(Time slot) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kSlotBegin, kInvalidJob,
                       kInvalidNode, 0, slot, 0, 0.0});
  }
  void arrival(Time slot, JobId job) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kArrival, job, kInvalidNode, 0,
                       slot, 0, 0.0});
  }
  void capacity_change(Time slot, int capacity) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kCapacityChange, kInvalidJob,
                       kInvalidNode, capacity, slot, 0, 0.0});
  }
  /// Appends the slot's pick block (kPickBegin + one kExecute per pick,
  /// kept contiguous) and flushes unconditionally: the pre-execution
  /// flush point.  `alive`/`ready_width` are the post-arrival values the
  /// scheduler saw.
  void pick_block(Time slot, std::span<const SubjobRef> picks,
                  std::int64_t alive, std::int64_t ready_width,
                  double pick_seconds) {
    make_room(1 + picks.size());
    buffer_.push_back({SlotEvent::Kind::kPickBegin,
                       static_cast<JobId>(alive), kInvalidNode,
                       static_cast<std::int32_t>(picks.size()), slot,
                       ready_width, pick_seconds});
    for (const SubjobRef& ref : picks) {
      buffer_.push_back({SlotEvent::Kind::kExecute, ref.job, ref.node, 0,
                         slot, 0, 0.0});
    }
    flush();
  }
  void complete(Time slot, JobId job) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kComplete, job, kInvalidNode, 0,
                       slot, 0, 0.0});
  }
  void rollback(Time slot, JobId job, std::int64_t wasted,
                std::int64_t frontier) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kRollback, job, kInvalidNode,
                       static_cast<std::int32_t>(wasted), slot, frontier,
                       0.0});
  }
  void checkpoint(Time slot, JobId job, std::int64_t committed,
                  std::int64_t frontier) {
    make_room(1);
    buffer_.push_back({SlotEvent::Kind::kCheckpoint, job, kInvalidNode,
                       static_cast<std::int32_t>(committed), slot, frontier,
                       0.0});
  }
  /// End-of-slot flush point: delivers pending completion events (the
  /// only records that can follow the pre-execution flush), so batches
  /// never span slots.
  void slot_end() {
    if (!buffer_.empty()) flush();
  }

 private:
  /// Buffer-full flush point.  The capacity is a soft threshold: a block
  /// larger than the whole ring still lands contiguously (the vector
  /// grows for that one batch).
  void make_room(std::size_t incoming) {
    if (!buffer_.empty() && buffer_.size() + incoming > capacity_) flush();
  }
  void flush() {
    observer_->on_slot_batch(*engine_,
                             std::span<const SlotEvent>(buffer_));
    buffer_.clear();
  }

  const EngineBackend* engine_ = nullptr;
  RunObserver* observer_ = nullptr;  // borrowed; null = inactive
  std::size_t capacity_ = kDefaultSlotBatchCapacity;
  std::vector<SlotEvent> buffer_;
};

/// Convenience for flow-only call sites (ratio/sweep/adversary runs that
/// only consume FlowSummary / SimStats).
inline SimOptions FlowOnlyOptions() {
  SimOptions options;
  options.record = RecordMode::kFlowOnly;
  return options;
}

/// Everything a run needs besides (instance, m, scheduler): the options,
/// an optional borrowed observer, and the event-ring capacity.  The SOLE
/// argument of Simulate / ReferenceSimulate / RunAdaptiveAdversary; bare
/// SimOptions convert implicitly, so `Simulate(inst, m, s, options)` and
/// `Simulate(inst, m, s)` still read naturally.
struct RunContext {
  RunContext() = default;
  RunContext(const SimOptions& options, RunObserver* observer = nullptr,
             std::size_t batch_capacity = kDefaultSlotBatchCapacity)
      : options(options),
        observer(observer),
        batch_capacity(batch_capacity) {}

  SimOptions options;
  RunObserver* observer = nullptr;
  /// Soft size of the per-run SlotEvent ring: a flush happens before any
  /// append that would exceed it (pick blocks stay contiguous even when
  /// larger).  Smaller rings mean more frequent `on_slot_batch` calls;
  /// the flush-boundary tests run with capacities down to 1.
  std::size_t batch_capacity = kDefaultSlotBatchCapacity;
};

}  // namespace otsched
