// Feasibility checking against the four schedule axioms of Section 3:
//
//   (1) at most m subjobs run per slot,
//   (2) every subjob of every job is scheduled exactly once,
//   (3) precedence: for every edge (j, k), slot(j) < slot(k),
//   (4) releases: a subjob of a job released at r runs at a slot > r.
//
// This is the library's one implementation of the axioms.  Multi-job
// engine schedules come here directly; single-job LPF schedules
// (CheckJobSchedule), job-fault rollback traces
// (CheckCommittedFeasibilityOracle) and Most-Children replay logs
// (CheckMcBusyOracle) are rewritten as a Schedule and checked here too,
// so every form reports the same "axiom (N)" verdicts.
#pragma once

#include <cstdint>
#include <string>

#include "job/instance.h"
#include "sim/schedule.h"

namespace otsched {

struct ValidationReport {
  bool feasible = true;
  /// Empty when feasible; otherwise a description of the FIRST violation
  /// found (axiom number, job, node, slot).
  std::string violation;

  explicit operator bool() const { return feasible; }
};

/// Checks all four axioms.  `wasted` is the number of executions the run
/// rolled back (SimStats::wasted_subjob_slots).  At 0, every subjob runs
/// exactly once.  Above 0 a subjob may run again after a rollback:
/// capacity and release still hold for every placement, exactly-once and
/// precedence hold for each subjob's LAST run, and the placements must
/// add up to total work + `wasted`.
ValidationReport ValidateSchedule(const Schedule& schedule,
                                  const Instance& instance,
                                  std::int64_t wasted = 0);

}  // namespace otsched
