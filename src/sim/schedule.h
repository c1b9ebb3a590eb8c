// Explicit schedule representation (Section 3).
//
// A schedule maps each 1-based time slot t to the multiset of subjobs run
// during (t-1, t].  Which physical processor runs which subjob is
// irrelevant in the paper's model, so a slot is just a bounded bag of
// SubjobRefs with |slot| <= m.
//
// It is the one store from slots to subjobs: engine runs record into it,
// and a single-job packing (LPF's schedule S of Section 5, hand-built
// packings) is a Schedule(p) whose refs are all {0, v}.
//
// Storage is a flat CSR arena: one contiguous SubjobRef array plus a
// per-slot offset table, instead of one heap vector per slot.  A
// Schedule is append-only: place() takes slots in nondecreasing order,
// as every engine, oracle and bench fills them, so each placement is a
// plain append and per-slot call order is storage order.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "job/instance.h"

namespace otsched {

class Schedule {
 public:
  /// m is the processor count the schedule is for (capacity per slot).
  explicit Schedule(int m);

  int m() const { return m_; }

  /// Appends `ref` to `slot`, which must be >= 1 and >= horizon().
  /// Capacity and feasibility are checked by ValidateSchedule, not here,
  /// so that tests can build deliberately-broken schedules.
  void place(Time slot, SubjobRef ref);

  /// Last slot with any subjob (0 for the empty schedule).
  Time horizon() const { return horizon_; }

  /// Subjobs run at `slot` (empty span for slots beyond the horizon).
  std::span<const SubjobRef> at(Time slot) const;

  /// Number of subjobs at `slot`.
  int load(Time slot) const { return static_cast<int>(at(slot).size()); }

  /// Total subjobs placed.
  std::int64_t total_placed() const { return total_placed_; }

  /// Count of (slot, processor) pairs left idle over [1, horizon].
  std::int64_t idle_processor_slots() const;

  /// Slots in [from, to] with load strictly less than m: the underfull
  /// slots that CheckLemma52 and AnalyzeHeadTail read for the Lemma 5.2 /
  /// Figure 2 shape.
  std::vector<Time> idle_slots(Time from, Time to) const;

 private:
  int m_;
  std::int64_t total_placed_ = 0;
  Time horizon_ = 0;  // max slot ever placed into

  // CSR arena covering slots [1, offsets_.size() - 1]: slot t holds
  // entries_[offsets_[t - 1], offsets_[t]).  Invariant: offsets_[0] == 0
  // and offsets_ is nondecreasing.
  std::vector<std::int64_t> offsets_;
  std::vector<SubjobRef> entries_;
};

/// Per-job completion times and flows of a schedule, measured against the
/// instance's ORIGINAL release times.
struct FlowSummary {
  std::vector<Time> completion;  // kNoTime if never completed
  std::vector<Time> flow;        // completion - release; kInfiniteTime if unfinished
  Time max_flow = 0;             // the l_inf objective F^S_max
  JobId max_flow_job = kInvalidJob;
  bool all_completed = true;
};

/// The one summarizer: `completion[i]` is the slot job i finished in, or
/// kNoTime if it never did (flow kInfiniteTime, saturating max_flow).
/// SimDriver feeds it the finish slots it records online;
/// FlowAccumulator feeds it the ones it derives from placements.
FlowSummary SummarizeFlows(std::span<const Time> release,
                           std::vector<Time> completion);

/// Flow accounting from placements: feed it every executed subjob and
/// finish() yields the instance's FlowSummary.  ComputeFlows runs it over
/// a materialized schedule and the reference engine online, so both
/// account flows separately from SimDriver's finish slots.
class FlowAccumulator {
 public:
  FlowAccumulator() = default;
  explicit FlowAccumulator(const Instance& instance) { init(instance); }

  /// (Re)binds to an instance; resets all counters.
  void init(const Instance& instance);

  /// One subjob of `job` ran during `slot`.  Slots need not be fed in
  /// order; completion is the LAST slot a job's subjob ran in.  Inline:
  /// this is once-per-executed-subjob on the engine hot path.
  void record(Time slot, JobId job) {
    const std::size_t i = static_cast<std::size_t>(job);
    ++placed_[i];
    if (slot > last_slot_[i]) last_slot_[i] = slot;
  }

  /// Un-records `count` placements of `job` — a job-fault rollback lost
  /// that much volatile work (sim/job_faults.h).  `last_slot_` needs no
  /// rewind: the lost subjobs re-execute in strictly later slots, so the
  /// max in record() self-corrects before the job can complete.
  void unrecord(JobId job, std::int64_t count) {
    placed_[static_cast<std::size_t>(job)] -= count;
  }

  /// Summarizes what has been recorded so far.  Jobs whose recorded count
  /// is short of their work are unfinished.
  FlowSummary finish() const;

 private:
  std::vector<std::int64_t> work_;    // per-job total work
  std::vector<Time> release_;         // per-job release time
  std::vector<std::int64_t> placed_;
  std::vector<Time> last_slot_;
};

/// Computes completion/flow per job.  A job completes when all of its
/// subjobs have been placed; jobs with missing subjobs are reported as
/// unfinished (max_flow then saturates to kInfiniteTime).
FlowSummary ComputeFlows(const Schedule& schedule, const Instance& instance);

}  // namespace otsched
