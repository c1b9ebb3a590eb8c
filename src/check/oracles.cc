#include "check/oracles.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/assert.h"
#include "core/most_children.h"
#include "dag/metrics.h"
#include "dag/validate.h"
#include "opt/brute_force.h"
#include "opt/dual_fitting.h"
#include "opt/flow_network.h"
#include "opt/lower_bounds.h"
#include "opt/single_batch.h"
#include "sim/validator.h"

namespace otsched {
namespace {

OracleResult Pass(OracleId id) { return {id, true, ""}; }

OracleResult Fail(OracleId id, const std::string& detail) {
  return {id, false, detail};
}

/// Calls visit(first, last, profile) once for every pair of distinct
/// release times first <= last, ordered by first and then last, where
/// profile[d] = sum over the jobs released in [first, last] of W(d), the
/// work deeper than d, for d in [0, instance.max_span()].  profile[0] is
/// the window's total work, and profiles are non-increasing in d, so a
/// visitor may stop at the first zero.  O(R * sum of spans + R^2) for R
/// distinct releases, plus what the visitor spends.
void ForEachReleaseWindow(
    const Instance& instance,
    const std::function<void(Time first, Time last,
                             const std::vector<std::int64_t>& profile)>&
        visit) {
  std::vector<const Job*> by_release;
  by_release.reserve(static_cast<std::size_t>(instance.job_count()));
  for (const Job& job : instance.jobs()) by_release.push_back(&job);
  std::sort(by_release.begin(), by_release.end(),
            [](const Job* x, const Job* y) {
              return x->release() < y->release();
            });

  // For each first release a, extend the window one release group at a
  // time, adding the group's depth profiles to a running sum.
  std::vector<std::int64_t> profile;
  for (std::size_t a = 0; a < by_release.size();) {
    const Time first = by_release[a]->release();
    profile.assign(static_cast<std::size_t>(instance.max_span()) + 1, 0);
    std::size_t b = a;
    while (b < by_release.size()) {
      const Time last = by_release[b]->release();
      for (; b < by_release.size() && by_release[b]->release() == last; ++b) {
        const DagMetrics& metrics = by_release[b]->metrics();
        for (std::int64_t d = 0; d < metrics.span; ++d) {
          profile[static_cast<std::size_t>(d)] += metrics.w_deeper(d);
        }
      }
      visit(first, last, profile);
    }
    while (a < by_release.size() && by_release[a]->release() == first) ++a;
  }
}

}  // namespace

const char* ToString(OracleId id) {
  switch (id) {
    case OracleId::kFeasibility:
      return "feasibility(S3-axioms)";
    case OracleId::kLpfValue:
      return "lpf-value(Cor5.4)";
    case OracleId::kHeadTail:
      return "head-tail(L5.2)";
    case OracleId::kMcBusy:
      return "mc-busy(L5.5)";
    case OracleId::kRatioCeiling:
      return "ratio-ceiling(T5.6)";
    case OracleId::kTraceEquivalence:
      return "trace-equivalence(observer)";
    case OracleId::kRecordModeEquivalence:
      return "record-mode-equivalence(flow-only)";
    case OracleId::kMCNoWasteUnderFaults:
      return "mc-no-waste-under-faults(L5.5)";
    case OracleId::kFaultedEngineEquivalence:
      return "faulted-engine-equivalence(budget)";
    case OracleId::kOptLowerBound:
      return "opt-lower-bound(certified)";
    case OracleId::kNoLostWorkWhenHealthy:
      return "no-lost-work-when-healthy(job-faults)";
    case OracleId::kCommittedFeasibility:
      return "committed-feasibility(S3,job-faults)";
  }
  return "unknown-oracle";
}

Time TryBruteOpt(const Instance& instance, int m) {
  if (instance.empty() || instance.total_work() > 16) return 0;
  return BruteForceOpt(instance, m);
}

namespace {

/// Slot-by-slot, entry-by-entry schedule equality (same subjobs in the
/// same order within every slot).
bool SchedulesEqual(const Schedule& a, const Schedule& b) {
  if (a.horizon() != b.horizon() || a.total_placed() != b.total_placed()) {
    return false;
  }
  for (Time t = 1; t <= a.horizon(); ++t) {
    const auto lhs = a.at(t);
    const auto rhs = b.at(t);
    if (lhs.size() != rhs.size()) return false;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      if (!(lhs[i] == rhs[i])) return false;
    }
  }
  return true;
}

}  // namespace

std::string FirstRunDifference(const SimResult& a, const SimResult& b) {
  std::ostringstream out;
  const auto differ = [&out](const char* name, auto lhs, auto rhs) {
    if (lhs != rhs) out << name << ' ' << lhs << " vs " << rhs;
    return lhs != rhs;
  };
  const auto differ_per_job = [&](const char* name,
                                  const std::vector<Time>& lhs,
                                  const std::vector<Time>& rhs) {
    if (differ("job count", lhs.size(), rhs.size())) return true;
    for (std::size_t j = 0; j < lhs.size(); ++j) {
      if (lhs[j] != rhs[j]) {
        out << name << " of job " << j << ' ' << lhs[j] << " vs " << rhs[j];
        return true;
      }
    }
    return false;
  };
  const SimStats& sa = a.stats;
  const SimStats& sb = b.stats;
  if (differ("max_flow", a.flows.max_flow, b.flows.max_flow) ||
      differ("max_flow_job", a.flows.max_flow_job, b.flows.max_flow_job) ||
      differ("all_completed", a.flows.all_completed, b.flows.all_completed) ||
      differ_per_job("flow", a.flows.flow, b.flows.flow) ||
      differ_per_job("completion", a.flows.completion, b.flows.completion) ||
      differ("horizon", sa.horizon, sb.horizon) ||
      differ("executed_subjobs", sa.executed_subjobs, sb.executed_subjobs) ||
      differ("idle_processor_slots", sa.idle_processor_slots,
             sb.idle_processor_slots) ||
      differ("busy_slots", sa.busy_slots, sb.busy_slots) ||
      differ("faulted_slots", sa.faulted_slots, sb.faulted_slots) ||
      differ("capacity_shortfall", sa.capacity_shortfall,
             sb.capacity_shortfall) ||
      differ("job_rollbacks", sa.job_rollbacks, sb.job_rollbacks) ||
      differ("wasted_subjob_slots", sa.wasted_subjob_slots,
             sb.wasted_subjob_slots)) {
    return out.str();
  }
  if (a.has_schedule() && b.has_schedule() &&
      !SchedulesEqual(a.full_schedule(), b.full_schedule())) {
    return "schedules differ";
  }
  return "";
}

OracleResult CheckNoLostWorkWhenHealthyOracle(const SimResult& baseline,
                                              const SimResult& armed) {
  const OracleId id = OracleId::kNoLostWorkWhenHealthy;
  if (armed.stats.job_rollbacks != 0 || armed.stats.wasted_subjob_slots != 0) {
    return Fail(id, "the armed-but-silent run rolled back work");
  }
  const std::string difference = FirstRunDifference(baseline, armed);
  if (difference.empty()) return Pass(id);
  return Fail(id, "armed run diverges from the baseline: " + difference);
}

OracleResult CheckCommittedFeasibilityOracle(const EventTrace& trace,
                                             const Instance& instance, int m,
                                             const SimStats& stats) {
  const OracleId id = OracleId::kCommittedFeasibility;
  Schedule executed(m);
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kExecute) {
      executed.place(event.slot, SubjobRef{event.job, event.node});
    }
  }
  const ValidationReport report =
      ValidateSchedule(executed, instance, stats.wasted_subjob_slots);
  if (!report) return Fail(id, report.violation);
  // Each job's kComplete lands in the slot of its last execute (place()
  // above kept the executes in nondecreasing slot order).
  const std::size_t jobs = static_cast<std::size_t>(instance.job_count());
  std::vector<Time> last_execute(jobs, kNoTime);
  std::vector<Time> completion(jobs, kNoTime);
  for (const TraceEvent& event : trace.events()) {
    const std::size_t j = static_cast<std::size_t>(event.job);
    if (event.kind == TraceEventKind::kExecute) last_execute[j] = event.slot;
    if (event.kind == TraceEventKind::kComplete) completion[j] = event.slot;
  }
  for (std::size_t j = 0; j < completion.size(); ++j) {
    if (completion[j] != last_execute[j]) {
      return Fail(id, "job " + std::to_string(j) + " completion slot " +
                          std::to_string(completion[j]) +
                          " != last execute slot " +
                          std::to_string(last_execute[j]));
    }
  }
  return Pass(id);
}

OracleResult CheckTraceEquivalenceOracle(const EventTrace& streamed,
                                         const Schedule& schedule,
                                         const Instance& instance) {
  const EventTrace derived = DeriveTrace(schedule, instance);
  const std::int64_t divergence = FirstDivergence(streamed, derived);
  if (divergence < 0) return Pass(OracleId::kTraceEquivalence);
  std::ostringstream detail;
  detail << "streamed trace diverges from DeriveTrace at event " << divergence
         << " (streamed " << streamed.size() << " events, derived "
         << derived.size() << ")";
  return Fail(OracleId::kTraceEquivalence, detail.str());
}

OracleResult CheckFeasibilityOracle(const Schedule& schedule,
                                    const Instance& instance) {
  const ValidationReport report = ValidateSchedule(schedule, instance);
  if (!report.feasible) {
    return Fail(OracleId::kFeasibility, report.violation);
  }
  return Pass(OracleId::kFeasibility);
}

OracleResult CheckLpfValueOracle(const Dag& dag, int m,
                                 const Schedule& lpf,
                                 bool cross_check_brute_force) {
  if (!IsOutForest(dag)) {
    return Fail(OracleId::kLpfValue,
                "Corollary 5.4 oracle requires an out-forest input");
  }
  const ValidationReport feasible = ValidateSingleJob(lpf, dag);
  if (!feasible) {
    return Fail(OracleId::kLpfValue,
                "LPF schedule is not feasible: " + feasible.violation);
  }
  const Time closed_form = SingleBatchOpt(dag, m);
  if (lpf.horizon() != closed_form) {
    std::ostringstream detail;
    detail << "LPF[" << m << "] length " << lpf.horizon()
           << " != Corollary 5.4 value " << closed_form;
    return Fail(OracleId::kLpfValue, detail.str());
  }
  if (cross_check_brute_force) {
    Instance single;
    single.add_job(Job(Dag(dag), 0));
    const Time brute = TryBruteOpt(single, m);
    if (brute > 0 && brute != closed_form) {
      std::ostringstream detail;
      detail << "Corollary 5.4 value " << closed_form
             << " != brute-force OPT " << brute << " on " << m
             << " processors";
      return Fail(OracleId::kLpfValue, detail.str());
    }
  }
  return Pass(OracleId::kLpfValue);
}

OracleResult CheckHeadTailOracle(const Dag& dag, int m, int alpha,
                                 const Schedule& reduced) {
  OTSCHED_CHECK(alpha >= 2, "alpha must be at least 2, got " << alpha);
  if (!IsOutForest(dag)) {
    return Fail(OracleId::kHeadTail,
                "Lemma 5.2 oracle requires an out-forest input");
  }
  const int p = (m + alpha - 1) / alpha;
  if (reduced.m() != p) {
    std::ostringstream detail;
    detail << "schedule built for p = " << reduced.m()
           << ", expected ceil(m/alpha) = " << p;
    return Fail(OracleId::kHeadTail, detail.str());
  }
  const ValidationReport feasible = ValidateSingleJob(reduced, dag);
  if (!feasible) {
    return Fail(OracleId::kHeadTail,
                "reduced LPF schedule is not feasible: " +
                    feasible.violation);
  }
  const Lemma52Report chain = CheckLemma52(dag, reduced);
  if (!chain.holds) {
    return Fail(OracleId::kHeadTail,
                "Lemma 5.2 ancestor chain violated: " + chain.detail);
  }
  const Time opt = SingleBatchOpt(dag, m);
  if (chain.last_underfull != kNoTime && chain.last_underfull > opt) {
    std::ostringstream detail;
    detail << "last underfull slot " << chain.last_underfull
           << " exceeds OPT[" << m << "] = " << opt;
    return Fail(OracleId::kHeadTail, detail.str());
  }
  const HeadTailShape shape = AnalyzeHeadTail(reduced, opt);
  if (!shape.underfull_tail_slots.empty()) {
    std::ostringstream detail;
    detail << "tail is not a packed rectangle: slot "
           << shape.underfull_tail_slots.front() << " of "
           << reduced.horizon() << " runs fewer than p = " << p
           << " subjobs (head = " << opt << " slots)";
    return Fail(OracleId::kHeadTail, detail.str());
  }
  if (shape.tail_len > static_cast<Time>(alpha - 1) * opt) {
    std::ostringstream detail;
    detail << "tail length " << shape.tail_len << " exceeds (alpha-1)*OPT = "
           << static_cast<Time>(alpha - 1) * opt;
    return Fail(OracleId::kHeadTail, detail.str());
  }
  return Pass(OracleId::kHeadTail);
}

McReplayLog RunMostChildrenLog(const Dag& dag, const Schedule& schedule,
                               std::span<const int> budgets,
                               Time prefix_len) {
  OTSCHED_CHECK(!budgets.empty(), "budget stream must be non-empty");
  bool positive = false;
  for (int b : budgets) positive = positive || b > 0;
  OTSCHED_CHECK(positive, "budget stream needs at least one positive entry");

  McReplayLog log;
  log.prefix_len = prefix_len;
  MostChildrenReplayer replayer(dag, schedule);
  if (prefix_len > 0) replayer.mark_prefix_executed(prefix_len);
  std::size_t i = 0;
  while (!replayer.done()) {
    McReplayLog::Step step;
    step.budget = budgets[i % budgets.size()];
    ++i;
    replayer.step(step.budget, &step.scheduled);
    log.steps.push_back(std::move(step));
    OTSCHED_CHECK(log.steps.size() <=
                      static_cast<std::size_t>(dag.node_count()) +
                          budgets.size() + 1,
                  "Most-Children replay failed to terminate");
  }
  return log;
}

namespace {

/// The shared Lemma 5.5 verifier: the lemma's statement never assumes the
/// budget stream's shape, so the fixed-cycle (kMcBusy) and faulted
/// (kMCNoWasteUnderFaults) oracles run the identical checks and differ
/// only in the id stamped on the verdict.
OracleResult CheckMcLogOracle(OracleId id, const Dag& dag,
                              const Schedule& schedule,
                              const McReplayLog& log) {
  // The pre-executed S prefix followed by the MC steps is one schedule of
  // the job on S's p processors: S-slot s is slot s, MC step i is slot
  // prefix + i.  Section 3's axioms cover readiness, re-execution and
  // nodes never run.
  const Time prefix = std::min<Time>(log.prefix_len, schedule.horizon());
  Schedule replay(schedule.m());
  std::int64_t remaining = dag.node_count();
  for (Time s = 1; s <= prefix; ++s) {
    for (const SubjobRef& ref : schedule.at(s)) replay.place(s, ref);
    remaining -= schedule.load(s);
  }
  for (std::size_t i = 0; i < log.steps.size(); ++i) {
    for (NodeId v : log.steps[i].scheduled) {
      replay.place(prefix + static_cast<Time>(i) + 1, SubjobRef{0, v});
    }
  }
  Instance single;
  single.add_job(Job(Dag(dag), 0));
  const ValidationReport report = ValidateSchedule(replay, single);
  if (!report) return Fail(id, report.violation);

  for (std::size_t i = 0; i < log.steps.size(); ++i) {
    const McReplayLog::Step& step = log.steps[i];
    const Time now = static_cast<Time>(i) + 1;
    const int used = static_cast<int>(step.scheduled.size());
    if (used > step.budget) {
      std::ostringstream detail;
      detail << "step " << now << " schedules " << used
             << " subjobs with budget " << step.budget;
      return Fail(id, detail.str());
    }
    remaining -= used;
    // Lemma 5.5: a step either uses its whole budget or finishes the job.
    if (used < step.budget && remaining > 0) {
      std::ostringstream detail;
      detail << "step " << now << " wastes " << step.budget - used
             << " processors with " << remaining << " subjobs remaining";
      return Fail(id, detail.str());
    }
  }
  return Pass(id);
}

}  // namespace

OracleResult CheckMcBusyOracle(const Dag& dag, const Schedule& schedule,
                               const McReplayLog& log) {
  return CheckMcLogOracle(OracleId::kMcBusy, dag, schedule, log);
}

OracleResult CheckMcNoWasteUnderFaultsOracle(const Dag& dag,
                                             const Schedule& schedule,
                                             const McReplayLog& log) {
  return CheckMcLogOracle(OracleId::kMCNoWasteUnderFaults, dag, schedule,
                          log);
}

McReplayLog RunMostChildrenFaultLog(const Dag& dag,
                                    const Schedule& schedule,
                                    const FaultSpec& faults, int p,
                                    Time prefix_len) {
  OTSCHED_CHECK(faults.active(),
                "RunMostChildrenFaultLog needs an active fault model");
  OTSCHED_CHECK(p >= 1, "machine size p must be >= 1, got " << p);

  McReplayLog log;
  log.prefix_len = prefix_len;
  MostChildrenReplayer replayer(dag, schedule);
  if (prefix_len > 0) replayer.mark_prefix_executed(prefix_len);
  BudgetSequencer sequencer(faults, p);
  Time slot = 0;
  // Zero-budget outage steps make no progress, so the fixed-cycle bound
  // (node_count + cycle + 1) does not apply; the rate cap (<= 0.9) keeps
  // the expected stall fraction bounded and 64x head-room covers it.
  const std::size_t max_steps =
      64 * static_cast<std::size_t>(dag.node_count()) + 4096;
  while (!replayer.done()) {
    McReplayLog::Step step;
    ++slot;
    // Remaining work stands in for the engine's alive stream: it only
    // drops, so kAdversarialDip dips at most once per replay.
    step.budget = sequencer.capacity(slot, replayer.remaining());
    replayer.step(step.budget, &step.scheduled);
    log.steps.push_back(std::move(step));
    OTSCHED_CHECK(log.steps.size() <= max_steps,
                  "faulted Most-Children replay failed to terminate (spec "
                      << ToString(faults) << " starves the machine)");
  }
  return log;
}

OracleResult CheckRatioCeilingOracle(const Instance& instance, int m,
                                     Time max_flow, double ceiling,
                                     Time certified_opt) {
  OTSCHED_CHECK(ceiling > 0, "ratio ceiling must be positive");
  if (instance.empty()) return Pass(OracleId::kRatioCeiling);
  const bool exact = certified_opt > 0;
  const Time denominator =
      exact ? certified_opt
            : std::max<Time>(Time{1}, MaxFlowLowerBound(instance, m));
  if (max_flow == kInfiniteTime ||
      static_cast<double>(max_flow) >
          ceiling * static_cast<double>(denominator)) {
    std::ostringstream detail;
    detail << "max flow " << max_flow << " exceeds ceiling " << ceiling
           << " * " << (exact ? "certified OPT " : "lower bound ")
           << denominator << " on " << m << " processors";
    return Fail(OracleId::kRatioCeiling, detail.str());
  }
  return Pass(OracleId::kRatioCeiling);
}

Time EnumeratedDualFitBound(const Instance& instance, int m,
                            const BudgetTrace* budget) {
  OTSCHED_CHECK(m >= 1, "m must be >= 1, got " << m);
  if (instance.empty()) return 0;
  Time best = std::max<Time>(1, instance.max_span());

  // Enumerate 0/1 witnesses T(a, b, d, B) = [a + d + 1, b + B - 1] over
  // every release window and depth, with exact (possibly faulted)
  // capacity sums.  For fixed (a, b, d) the capacity of T grows with B
  // while the demand W stays put, so the best certified B is found by
  // binary search on "capacity < W".
  const Time trace_len = budget == nullptr ? 0 : budget->length();
  ForEachReleaseWindow(instance, [&](Time a, Time b,
                                     const std::vector<std::int64_t>&
                                         profile) {
    for (std::size_t di = 0; di < profile.size() && profile[di] > 0; ++di) {
      const Time d = static_cast<Time>(di);
      const std::int64_t demand = profile[di];
      const auto capacity = [&](Time bound) {
        return SlotCapacitySum(budget, a + d + 1, b + bound - 1, m);
      };
      // Smallest B making T nonempty; larger B only adds capacity.
      Time lo = std::max<Time>(1, d + 2 - (b - a));
      if (capacity(lo) >= demand) continue;
      // Beyond the trace every slot supplies m >= 1 units, so the
      // bound saturates within demand + trace_len extra slots.
      Time hi = lo + demand + trace_len + 1;
      OTSCHED_CHECK(capacity(hi) >= demand,
                    "dual-fit search horizon too small");
      while (hi - lo > 1) {
        const Time mid = lo + (hi - lo) / 2;
        (capacity(mid) < demand ? lo : hi) = mid;
      }
      best = std::max(best, lo);
    }
  });
  return best;
}

OracleResult CheckOptLowerBoundOracle(const Instance& instance, int m,
                                      const OptBoundCheckOptions& options) {
  const auto fail = [](const std::string& detail) {
    return Fail(OracleId::kOptLowerBound, detail);
  };
  if (instance.empty()) return Pass(OracleId::kOptLowerBound);

  const Time heuristic = MaxFlowLowerBound(instance, m);

  std::string why;
  const Certificate dual = DualFitCertificate(instance, m, options.budget);
  if (!dual.verify(instance, options.budget, &why)) {
    return fail("dual-fit certificate failed verify(): " + why);
  }
  const Certificate flow = MaxFlowCertificate(instance, m, options.budget);
  if (!flow.verify(instance, options.budget, &why)) {
    return fail("max-flow certificate failed verify(): " + why);
  }

  std::ostringstream detail;
  // The heuristic bounds assume a healthy machine but remain valid
  // under faults (removing capacity never decreases OPT), so the
  // sandwich holds with or without a budget.  On a healthy machine the
  // dual fit's sweep lands on the heuristic closed forms exactly, and
  // under every budget it matches the independent window enumeration.
  const bool healthy_machine = options.budget == nullptr;
  if (healthy_machine ? heuristic != dual.value : heuristic > dual.value) {
    detail << "heuristic lower bound " << heuristic
           << (healthy_machine ? " differs from" : " exceeds")
           << " dual-fit certificate " << dual.value << " on " << m
           << " processors";
    return fail(detail.str());
  }
  const Time enumerated = EnumeratedDualFitBound(instance, m, options.budget);
  if (dual.value != enumerated) {
    detail << "dual-fit certificate " << dual.value
           << " differs from the enumerated release-window bound "
           << enumerated << " on " << m << " processors";
    return fail(detail.str());
  }
  if (dual.value > flow.value) {
    detail << "dual-fit certificate " << dual.value
           << " exceeds max-flow certificate " << flow.value << " on " << m
           << " processors";
    return fail(detail.str());
  }

  if (options.budget != nullptr) {
    const Time healthy = MaxFlowCertificate(instance, m).value;
    if (flow.value < healthy) {
      detail << "faulted max-flow certificate " << flow.value
             << " below the healthy-machine certificate " << healthy
             << " (losing capacity cannot lower OPT)";
      return fail(detail.str());
    }
  }

  if (options.certified_opt > 0 && flow.value > options.certified_opt) {
    detail << "max-flow certificate " << flow.value
           << " exceeds the generator-certified OPT "
           << options.certified_opt << " on " << m << " processors";
    return fail(detail.str());
  }

  if (options.cross_check_brute_force && options.budget == nullptr) {
    const Time opt = TryBruteOpt(instance, m);
    if (opt > 0 && flow.value > opt) {
      detail << "max-flow certificate " << flow.value
             << " exceeds brute-force OPT " << opt << " on " << m
             << " processors";
      return fail(detail.str());
    }
  }
  return Pass(OracleId::kOptLowerBound);
}

std::vector<OracleResult> CheckSingleJobOracles(
    const Dag& dag, int m, int alpha, bool cross_check_brute_force) {
  std::vector<OracleResult> results;
  if (dag.empty()) return results;

  // Corollary 5.4: LPF on the full machine achieves the closed form.
  const Schedule full = BuildLpfSchedule(dag, m);
  results.push_back(
      CheckLpfValueOracle(dag, m, full, cross_check_brute_force));

  // Lemma 5.2 / Figure 2 on the reduced machine.
  const int p = (m + alpha - 1) / alpha;
  const Schedule reduced = BuildLpfSchedule(dag, p);
  results.push_back(CheckHeadTailOracle(dag, m, alpha, reduced));

  // Lemma 5.5: MC replays the packed tail of LPF[p] (head pre-executed,
  // exactly Algorithm A's usage) under a fluctuating budget <= p.
  const Time opt = SingleBatchOpt(dag, m);
  const Time prefix = std::min<Time>(opt, reduced.horizon());
  if (reduced.horizon() > prefix) {
    std::vector<int> budgets;
    for (int k = 0; k < 7; ++k) {
      budgets.push_back(1 + (k * 2 + static_cast<int>(dag.node_count())) %
                                std::max(1, p));
    }
    const McReplayLog log =
        RunMostChildrenLog(dag, reduced, budgets, prefix);
    results.push_back(CheckMcBusyOracle(dag, reduced, log));

    // Lemma 5.5 under faults: the same tail replay on a stochastic budget
    // stream with mid-run zero-capacity outages.  The spec is a pure
    // function of (node_count, m) — FNV-1a over the two — so a replayed
    // fuzz repro regenerates the identical stream with no extra state.
    std::uint64_t h = 14695981039346656037ULL;
    h = (h ^ static_cast<std::uint64_t>(dag.node_count())) *
        1099511628211ULL;
    h = (h ^ static_cast<std::uint64_t>(m)) * 1099511628211ULL;
    FaultSpec faulted;
    faulted.model = (dag.node_count() % 2 == 0) ? FaultModel::kRandomBlip
                                                : FaultModel::kBurstOutage;
    faulted.seed = h;
    faulted.rate = 0.2 + 0.1 * static_cast<double>(h % 5);  // [0.2, 0.6]
    faulted.burst_len = 1 + static_cast<Time>(h % 7);
    const McReplayLog fault_log =
        RunMostChildrenFaultLog(dag, reduced, faulted, p, prefix);
    results.push_back(
        CheckMcNoWasteUnderFaultsOracle(dag, reduced, fault_log));
  }
  return results;
}

}  // namespace otsched
