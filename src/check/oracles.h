// Machine-checkable per-run oracles for the paper's structural theorems.
//
// Every oracle is a pure function from DATA (an instance, a schedule, a
// replay log, flow numbers) to a verdict, so that the same code path both
// (a) certifies real runs inside the differential fuzz harness and
// (b) can be tested by mutation injection: corrupt a known-good artifact
// and assert that exactly the intended oracle fires.
//
// Theorem <-> oracle map (mirrored in docs/ALGORITHMS.md):
//
//   Section 3 axioms (1)-(4)   CheckFeasibilityOracle   (via sim/validator)
//   Lemma 5.3 / Corollary 5.4  CheckLpfValueOracle      LPF[m] length ==
//                              max_d (d + ceil(W(d)/m)), == brute force OPT
//                              on small instances
//   Lemma 5.2 / Figure 2       CheckHeadTailOracle      LPF[ceil(m/alpha)]
//                              = arbitrary head (<= OPT slots) + fully
//                              packed rectangular tail
//   Lemma 5.5                  CheckMcBusyOracle        a Most-Children
//                              replay never wastes a processor before the
//                              job finishes
//   Lemma 5.5 (faulted)        CheckMcNoWasteUnderFaultsOracle   the same
//                              no-waste property on an ARBITRARY budget
//                              trace from sim/faults (the lemma never
//                              assumes the budget stream's shape)
//   Theorem 5.6 / 5.7          CheckRatioCeilingOracle  Algorithm A's max
//                              flow stays below the proven constant times
//                              a certified OPT (or a lower-bound
//                              certificate from opt/lower_bounds)
//   Cho–Easwaran flow bound /  CheckOptLowerBoundOracle  the certified
//   ALT dual fitting           lower-bound sandwich: heuristic bounds <=
//                              dual-fit certificate <= max-flow
//                              certificate <= brute-force OPT, and every
//                              certificate passes its own verify()
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lpf.h"
#include "job/instance.h"
#include "sched/registry.h"  // kTheorem56Ceiling / kTheorem57Ceiling
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/schedule.h"
#include "sim/trace.h"

namespace otsched {

enum class OracleId {
  kFeasibility,   // Section 3 axioms (1)-(4) + completion
  kLpfValue,      // Lemma 5.3 / Corollary 5.4
  kHeadTail,      // Lemma 5.2 / Figure 2
  kMcBusy,            // Lemma 5.5
  kRatioCeiling,      // Theorem 5.6 / 5.7
  kTraceEquivalence,  // streaming observer trace == DeriveTrace
  kRecordModeEquivalence,  // flow-only run == full run (flows and stats)
  kMCNoWasteUnderFaults,   // Lemma 5.5 on an arbitrary faulted budget trace
  kFaultedEngineEquivalence,  // faulted run: both engines bit-identical
  kOptLowerBound,  // certified bounds: heuristic <= dual-fit <= max-flow
                   // certificate <= brute-force OPT, certificates verify
  kNoLostWorkWhenHealthy,  // armed-but-silent job faults == plain run
  kCommittedFeasibility,   // Section 3 axioms over committed work only
};

const char* ToString(OracleId id);

struct OracleResult {
  OracleId id = OracleId::kFeasibility;
  bool ok = true;
  /// Empty when ok; otherwise a description of the first violation.
  std::string detail;

  explicit operator bool() const { return ok; }
};

// ---- Section 3: feasibility ----

/// Wraps sim/validator's four-axiom check and additionally requires every
/// job to complete (an online policy that stalls forever would otherwise
/// pass vacuously).
OracleResult CheckFeasibilityOracle(const Schedule& schedule,
                                    const Instance& instance);

// ---- Lemma 5.3 / Corollary 5.4: LPF value ----

/// Verifies that `lpf` (built for the full machine, p == m) is internally
/// consistent and that its length equals the Corollary 5.4 closed form
/// max_d (d + ceil(W(d)/m)).  When `cross_check_brute_force` is set and
/// the DAG is small enough for opt/brute_force, additionally certifies the
/// closed form against exhaustive search.
OracleResult CheckLpfValueOracle(const Dag& dag, int m,
                                 const JobSchedule& lpf,
                                 bool cross_check_brute_force = false);

// ---- Lemma 5.2 / Figure 2: head/tail rectangle ----

/// Verifies the LPF[p] shape for p = ceil(m/alpha): the Lemma 5.2 ancestor
/// chain at the last underfull slot, last underfull slot <= OPT[m], and
/// the Figure 2 decomposition into a head of at most OPT[m] slots followed
/// by a fully packed tail of at most (alpha - 1) * OPT[m] slots.
OracleResult CheckHeadTailOracle(const Dag& dag, int m, int alpha,
                                 const JobSchedule& reduced);

// ---- Lemma 5.5: Most-Children never wastes a processor ----

/// A recorded Most-Children replay: the per-step budgets and the node ids
/// actually scheduled.  Produced by RunMostChildrenLog (below) for real
/// runs and hand-corrupted by the mutation tests.
struct McReplayLog {
  /// S-slots [1, prefix_len] of the source schedule were marked executed
  /// before step 1 (Algorithm A's "head already done" convention).
  Time prefix_len = 0;
  struct Step {
    int budget = 0;
    std::vector<NodeId> scheduled;
  };
  std::vector<Step> steps;
};

/// Replays `schedule` through MostChildrenReplayer under the given
/// per-step budgets (cycled if the job outlives the vector) and records
/// the log.  `prefix_len` S-slots are marked pre-executed.
McReplayLog RunMostChildrenLog(const Dag& dag, const JobSchedule& schedule,
                               std::span<const int> budgets,
                               Time prefix_len = 0);

/// Verifies Lemma 5.5 on a replay log: every step schedules ready,
/// not-yet-executed nodes within budget; every node outside the prefix is
/// scheduled exactly once; and no step wastes budget while work remains
/// after it (the no-wasted-processor property).
OracleResult CheckMcBusyOracle(const Dag& dag, const JobSchedule& schedule,
                               const McReplayLog& log);

// ---- Lemma 5.5 under faults: no waste on arbitrary budget traces ----

/// Replays `schedule` through MostChildrenReplayer with per-step budgets
/// drawn from a sim/faults BudgetSequencer on a p-processor machine —
/// budgets may be ZERO mid-run (an outage stalls the replay, which is
/// exactly the case Lemma 5.5 must survive).  `faults` must be active and
/// must eventually grant capacity (a spec that starves forever trips the
/// termination check).  The remaining-work count feeds the sequencer's
/// alive stream, so kAdversarialDip dips exactly once per replay.
McReplayLog RunMostChildrenFaultLog(const Dag& dag,
                                    const JobSchedule& schedule,
                                    const FaultSpec& faults, int p,
                                    Time prefix_len = 0);

/// The Lemma 5.5 verdict on a faulted replay log: identical checks to
/// CheckMcBusyOracle (the lemma never assumes the budget stream's shape),
/// reported under OracleId::kMCNoWasteUnderFaults so fuzz repros name the
/// faulted leg explicitly.
OracleResult CheckMcNoWasteUnderFaultsOracle(const Dag& dag,
                                             const JobSchedule& schedule,
                                             const McReplayLog& log);

// ---- Theorem 5.6 / 5.7: competitive-ratio ceiling ----

/// Verifies max_flow <= ceiling * OPT.  `certified_opt` > 0 is trusted
/// (generator-certified); otherwise the denominator is the best lower
/// bound from opt/lower_bounds, which only makes the check stricter in
/// the failing direction (a flow above ceiling * lower_bound is above
/// ceiling * OPT only if the bound is tight — so the oracle reports the
/// denominator kind in its detail and uses the lower bound as the
/// conservative denominator: violations are real, passes are not proofs).
OracleResult CheckRatioCeilingOracle(const Instance& instance, int m,
                                     Time max_flow, double ceiling,
                                     Time certified_opt = 0);

// ---- exact OPT on small instances ----

/// Exact OPT by exhaustive search (opt/brute_force) when the instance has
/// at most 16 subjobs in total, which keeps every cross-check in the
/// microsecond range; 0 when the instance is empty or larger.
Time TryBruteOpt(const Instance& instance, int m);

// ---- certified lower bounds: flow network + dual fitting ----

/// Options for CheckOptLowerBoundOracle.  `budget` degrades per-slot
/// capacities (nullptr = healthy machine); brute-force cross-checks are
/// skipped on faulted machines (opt/brute_force models full capacity)
/// and on instances TryBruteOpt declines.
struct OptBoundCheckOptions {
  const BudgetTrace* budget = nullptr;
  bool cross_check_brute_force = true;
  /// A trusted exact OPT (0 = none): the certified bounds must not
  /// exceed it.  Must refer to OPT under the SAME budget as `budget` —
  /// generator certificates cover the healthy machine only, so callers
  /// with a degraded budget must pass 0 here (a faulted bound above the
  /// healthy OPT is expected, not a violation).
  Time certified_opt = 0;
};

/// The certified lower-bound sandwich on one (instance, m) pair:
///
///   opt/lower_bounds best  <=  DualFitCertificate.value
///                          <=  MaxFlowCertificate.value
///                          <=  brute-force OPT (healthy, small instances)
///
/// with both certificates passing Certificate::verify() against nothing
/// but the instance, m, and the budget; on a faulted machine the
/// max-flow bound must additionally be >= its healthy-machine value
/// (capacity never increases under faults).  Pure and deterministic, so
/// fuzz repros replay it with no extra state.
OracleResult CheckOptLowerBoundOracle(const Instance& instance, int m,
                                      const OptBoundCheckOptions& options = {});

// ---- runs that must be bit-identical ----

/// The one comparator behind every "these two runs must agree" oracle:
/// "" when `a` and `b` have the same FlowSummary (per-job completions and
/// flows, max flow and its job, all_completed), the same SimStats
/// counters except `checkpoints` (commits are bookkeeping, not
/// behaviour), and — when both runs recorded one — the same schedule;
/// otherwise a description of the first difference.
std::string FirstRunDifference(const SimResult& a, const SimResult& b);

// ---- job faults: no lost work when healthy ----

/// The kNoLostWorkWhenHealthy contract of sim/job_faults.h: a run with the
/// job-fault machinery ARMED but never firing (e.g. random-crash at rate 0)
/// must report zero rollbacks and zero wasted slots and must not differ
/// from the plain run under FirstRunDifference.  Pure over the two
/// SimResults, so fuzz repros replay it verbatim.
OracleResult CheckNoLostWorkWhenHealthyOracle(const SimResult& baseline,
                                              const SimResult& armed);

// ---- job faults: Section 3 feasibility over committed work ----

/// Section 3 feasibility of a run WITH rollbacks, checked on the streamed
/// event trace (job faults force RecordMode::kFlowOnly, so no Schedule
/// exists; re-executed subjobs appear in the trace once per execution):
///
///   - at most m executes per slot (the machine-size cap; concurrent
///     capacity faults only make the true cap tighter, never looser),
///   - every execute lands strictly after its job's release,
///   - every subjob executes at least once, and the FINAL execution of a
///     node lands strictly after the FINAL execution of each of its
///     parents — rollbacks un-execute suffix-closed sets, so the
///     executions that survive respect precedence even though earlier
///     attempts were discarded,
///   - each job's kComplete coincides with its last execute,
///   - reconciliation: total executes == instance total work +
///     `stats.wasted_subjob_slots` (every discarded slot is re-done,
///     nothing else is).
OracleResult CheckCommittedFeasibilityOracle(const EventTrace& trace,
                                             const Instance& instance, int m,
                                             const SimStats& stats);

// ---- observability: streaming trace equivalence ----

/// Verifies that a trace streamed online by StreamingTraceObserver equals
/// the canonical DeriveTrace of the finished schedule.  The two are
/// produced by independent code paths (hook stream vs post-hoc
/// reconstruction), so agreement certifies both the observer wiring and
/// the hook ordering contract of sim/observer.h.
OracleResult CheckTraceEquivalenceOracle(const EventTrace& streamed,
                                         const Schedule& schedule,
                                         const Instance& instance);

// The proven Theorem 5.6 / 5.7 ceilings for alpha = 4 live next to the
// policy specs they annotate: kTheorem56Ceiling / kTheorem57Ceiling in
// sched/registry.h (included above).

// ---- aggregation ----

/// Runs the single-job structural oracles (LPF value, head/tail, MC busy,
/// MC no-waste under a deterministically derived fault model) on one
/// out-forest and returns every verdict; a convenience used by the fuzz
/// harness and the bench smoke tests.  The fault leg derives its FaultSpec
/// purely from (node_count, m), so a replayed repro re-runs the identical
/// budget stream with no extra repro state.
std::vector<OracleResult> CheckSingleJobOracles(const Dag& dag, int m,
                                                int alpha,
                                                bool cross_check_brute_force);

}  // namespace otsched
