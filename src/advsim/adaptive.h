// A generalized Section 4 adversary that plays against ANY
// non-clairvoyant scheduler.
//
// The paper's lower-bound construction is specified against FIFO: layer
// sizes adapt to the processors FIFO had available, which is well-defined
// because FIFO is work-conserving.  Its conclusion notes that extending
// the Omega(log m) bound to arbitrary non-clairvoyant algorithms "does
// not seem straightforward".  This module implements the natural
// generalization and lets experiments measure what it achieves:
//
//   * every job is L layers of exactly m+1 subjobs (fixed widths keep the
//     adversary CONSISTENT: the ready sets it shows can never shrink);
//   * the *key* of a layer is chosen adaptively as the subjob the
//     scheduler completes LAST (ties broken arbitrarily within the final
//     slot) — an adversary choice that is invisible until the layer is
//     done, because the next layer only becomes ready once its key (and
//     hence the whole layer) has finished;
//   * jobs are released every gap = m+2 slots; the key-spine witness
//     schedule gives OPT <= m+2 (keys at r+1..r+L, the m*L non-key
//     subjobs fit in the leftover capacity of the window).
//
// The adversary is a job source on SimDriver (sim/driver.h): each job is
// submitted with every layer but the first held, and when a layer's
// ready set runs dry the subjob that emptied it is crowned and the next
// layer revealed.  The driver runs with clairvoyance denied, so a
// scheduler can see ready sets and progress but never a DAG.
//
// For a DETERMINISTIC scheduler the adaptive run and a replay of the
// materialized instance coincide exactly (the key, being last-finished,
// never gates anything the scheduler observed differently) — a property
// the tests verify, mirroring the lbsim cross-validation.
#pragma once

#include "job/instance.h"
#include "sim/engine.h"

namespace otsched {

struct AdaptiveAdversaryOptions {
  int m = 16;
  std::int64_t num_jobs = 64;
  int layers_per_job = -1;  // -1 => m
  Time gap = -1;            // -1 => m + 2
};

struct AdaptiveAdversaryResult {
  /// The schedule the scheduler produced during the adaptive run.
  /// Present iff the run was recorded with RecordMode::kFull (flow-only
  /// runs track flows incrementally and skip both the schedule and its
  /// ValidateSchedule consistency proof).
  std::optional<Schedule> schedule;
  /// The materialized instance (keys wired as chosen); `schedule`, when
  /// recorded, is a feasible schedule of it, which the runner validates.
  Instance instance;
  /// keys[job][layer] = the node id the adversary crowned.
  std::vector<std::vector<NodeId>> keys;
  FlowSummary flows;
  Time max_flow = 0;
  Time certified_opt_upper = 0;  // = gap

  /// The materialized schedule; aborts on a flow-only run.
  const Schedule& full_schedule() const;
};

/// Runs `scheduler` against the adaptive environment to completion on a
/// SimDriver, so `context.observer` sees exactly what a Simulate run
/// shows it.  A positive `context.options.max_horizon` replaces the
/// driver's auto horizon.  Processor faults (`context.options.faults`)
/// are modelled; an active job-fault spec is refused, as is a
/// clairvoyant scheduler.
AdaptiveAdversaryResult RunAdaptiveAdversary(
    Scheduler& scheduler, const AdaptiveAdversaryOptions& options,
    const RunContext& context = {});

}  // namespace otsched
