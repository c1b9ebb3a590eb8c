#include "check/oracles.h"

#include <algorithm>
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
  OracleResult result;
  result.id = OracleId::kCommittedFeasibility;
  const auto fail = [&result](std::string detail) {
    result.ok = false;
    result.detail = std::move(detail);
  };
  const JobId jobs = instance.job_count();
  // Per (job, node): last execution slot; per job: last execute and
  // completion slots; per slot: execute count.
  std::vector<std::vector<Time>> last_exec(static_cast<std::size_t>(jobs));
  for (JobId j = 0; j < jobs; ++j) {
    last_exec[static_cast<std::size_t>(j)].assign(
        static_cast<std::size_t>(instance.job(j).dag().node_count()), 0);
  }
  std::vector<Time> job_last_exec(static_cast<std::size_t>(jobs), 0);
  std::vector<Time> job_complete(static_cast<std::size_t>(jobs), 0);
  std::int64_t total_executes = 0;
  Time current_slot = 0;
  std::int64_t slot_executes = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind != TraceEventKind::kExecute) {
      if (event.kind == TraceEventKind::kComplete) {
        job_complete[static_cast<std::size_t>(event.job)] = event.slot;
      }
      continue;
    }
    if (event.slot != current_slot) {
      current_slot = event.slot;
      slot_executes = 0;
    }
    if (++slot_executes > m) {
      fail("slot " + std::to_string(event.slot) + " executes more than m=" +
           std::to_string(m) + " subjobs");
      return result;
    }
    const Job& job = instance.job(event.job);
    if (event.slot <= job.release()) {
      fail("job " + std::to_string(event.job) + " node " +
           std::to_string(event.node) + " executed at slot " +
           std::to_string(event.slot) + " <= release " +
           std::to_string(job.release()));
      return result;
    }
    ++total_executes;
    last_exec[static_cast<std::size_t>(event.job)]
             [static_cast<std::size_t>(event.node)] = event.slot;
    job_last_exec[static_cast<std::size_t>(event.job)] = std::max(
        job_last_exec[static_cast<std::size_t>(event.job)], event.slot);
  }
  for (JobId j = 0; j < jobs; ++j) {
    const Dag& dag = instance.job(j).dag();
    const auto& last = last_exec[static_cast<std::size_t>(j)];
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      const Time slot = last[static_cast<std::size_t>(v)];
      if (slot == 0) {
        fail("job " + std::to_string(j) + " node " + std::to_string(v) +
             " never executed");
        return result;
      }
      for (const NodeId p : dag.parents(v)) {
        const Time parent_slot = last[static_cast<std::size_t>(p)];
        if (parent_slot >= slot) {
          fail("committed precedence violated: job " + std::to_string(j) +
               " edge " + std::to_string(p) + "->" + std::to_string(v) +
               " final executions at slots " + std::to_string(parent_slot) +
               " >= " + std::to_string(slot));
          return result;
        }
      }
    }
    if (job_complete[static_cast<std::size_t>(j)] !=
        job_last_exec[static_cast<std::size_t>(j)]) {
      fail("job " + std::to_string(j) + " completion slot " +
           std::to_string(job_complete[static_cast<std::size_t>(j)]) +
           " != last execute slot " +
           std::to_string(job_last_exec[static_cast<std::size_t>(j)]));
      return result;
    }
  }
  const std::int64_t expected =
      instance.total_work() + stats.wasted_subjob_slots;
  if (total_executes != expected) {
    fail("execute reconciliation failed: trace has " +
         std::to_string(total_executes) + " executes, expected total work " +
         std::to_string(instance.total_work()) + " + wasted " +
         std::to_string(stats.wasted_subjob_slots));
    return result;
  }
  return result;
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
                                 const JobSchedule& lpf,
                                 bool cross_check_brute_force) {
  if (!IsOutForest(dag)) {
    return Fail(OracleId::kLpfValue,
                "Corollary 5.4 oracle requires an out-forest input");
  }
  const std::string schedule_error = CheckJobSchedule(dag, lpf);
  if (!schedule_error.empty()) {
    return Fail(OracleId::kLpfValue,
                "LPF schedule is not feasible: " + schedule_error);
  }
  if (lpf.total() != dag.node_count()) {
    std::ostringstream detail;
    detail << "LPF schedule places " << lpf.total() << " of "
           << dag.node_count() << " subjobs";
    return Fail(OracleId::kLpfValue, detail.str());
  }
  const Time closed_form = SingleBatchOpt(dag, m);
  if (lpf.length() != closed_form) {
    std::ostringstream detail;
    detail << "LPF[" << m << "] length " << lpf.length()
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
                                 const JobSchedule& reduced) {
  OTSCHED_CHECK(alpha >= 2, "alpha must be at least 2, got " << alpha);
  if (!IsOutForest(dag)) {
    return Fail(OracleId::kHeadTail,
                "Lemma 5.2 oracle requires an out-forest input");
  }
  const int p = (m + alpha - 1) / alpha;
  if (reduced.p != p) {
    std::ostringstream detail;
    detail << "schedule built for p = " << reduced.p
           << ", expected ceil(m/alpha) = " << p;
    return Fail(OracleId::kHeadTail, detail.str());
  }
  const std::string schedule_error = CheckJobSchedule(dag, reduced);
  if (!schedule_error.empty()) {
    return Fail(OracleId::kHeadTail,
                "reduced LPF schedule is not feasible: " + schedule_error);
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
           << reduced.length() << " runs fewer than p = " << p
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

McReplayLog RunMostChildrenLog(const Dag& dag, const JobSchedule& schedule,
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
                              const JobSchedule& schedule,
                              const McReplayLog& log) {
  const NodeId n = dag.node_count();
  // done_step[v]: MC step at which v completed; 0 = pre-executed prefix,
  // -1 = not yet executed.
  std::vector<Time> done_step(static_cast<std::size_t>(n), -1);
  std::int64_t prefix_nodes = 0;
  const Time prefix = std::min<Time>(log.prefix_len, schedule.length());
  for (Time s = 1; s <= prefix; ++s) {
    for (NodeId v : schedule.at(s)) {
      done_step[static_cast<std::size_t>(v)] = 0;
      ++prefix_nodes;
    }
  }
  std::int64_t remaining = n - prefix_nodes;

  for (std::size_t i = 0; i < log.steps.size(); ++i) {
    const McReplayLog::Step& step = log.steps[i];
    const Time now = static_cast<Time>(i) + 1;
    if (static_cast<int>(step.scheduled.size()) > step.budget) {
      std::ostringstream detail;
      detail << "step " << now << " schedules " << step.scheduled.size()
             << " subjobs with budget " << step.budget;
      return Fail(id, detail.str());
    }
    for (NodeId v : step.scheduled) {
      if (v < 0 || v >= n) {
        std::ostringstream detail;
        detail << "step " << now << " schedules unknown node " << v;
        return Fail(id, detail.str());
      }
      if (done_step[static_cast<std::size_t>(v)] >= 0) {
        std::ostringstream detail;
        detail << "step " << now << " re-executes node " << v
               << " (already done at step "
               << done_step[static_cast<std::size_t>(v)] << ")";
        return Fail(id, detail.str());
      }
      for (NodeId parent : dag.parents(v)) {
        const Time parent_done = done_step[static_cast<std::size_t>(parent)];
        if (parent_done < 0 || parent_done >= now) {
          std::ostringstream detail;
          detail << "step " << now << " runs node " << v
                 << " before its parent " << parent << " completed";
          return Fail(id, detail.str());
        }
      }
    }
    for (NodeId v : step.scheduled) {
      done_step[static_cast<std::size_t>(v)] = now;
    }
    remaining -= static_cast<std::int64_t>(step.scheduled.size());
    // Lemma 5.5: a step either uses its whole budget or finishes the job.
    if (static_cast<int>(step.scheduled.size()) < step.budget &&
        remaining > 0) {
      std::ostringstream detail;
      detail << "step " << now << " wastes "
             << step.budget - static_cast<int>(step.scheduled.size())
             << " processors with " << remaining << " subjobs remaining";
      return Fail(id, detail.str());
    }
  }
  if (remaining != 0) {
    std::ostringstream detail;
    detail << "replay ends with " << remaining << " subjobs never executed";
    return Fail(id, detail.str());
  }
  return Pass(id);
}

}  // namespace

OracleResult CheckMcBusyOracle(const Dag& dag, const JobSchedule& schedule,
                               const McReplayLog& log) {
  return CheckMcLogOracle(OracleId::kMcBusy, dag, schedule, log);
}

OracleResult CheckMcNoWasteUnderFaultsOracle(const Dag& dag,
                                             const JobSchedule& schedule,
                                             const McReplayLog& log) {
  return CheckMcLogOracle(OracleId::kMCNoWasteUnderFaults, dag, schedule,
                          log);
}

McReplayLog RunMostChildrenFaultLog(const Dag& dag,
                                    const JobSchedule& schedule,
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
  // sandwich holds with or without a budget.
  if (heuristic > dual.value) {
    detail << "heuristic lower bound " << heuristic
           << " exceeds dual-fit certificate " << dual.value << " on " << m
           << " processors";
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
  const JobSchedule full = BuildLpfSchedule(dag, m);
  results.push_back(
      CheckLpfValueOracle(dag, m, full, cross_check_brute_force));

  // Lemma 5.2 / Figure 2 on the reduced machine.
  const int p = (m + alpha - 1) / alpha;
  const JobSchedule reduced = BuildLpfSchedule(dag, p);
  results.push_back(CheckHeadTailOracle(dag, m, alpha, reduced));

  // Lemma 5.5: MC replays the packed tail of LPF[p] (head pre-executed,
  // exactly Algorithm A's usage) under a fluctuating budget <= p.
  const Time opt = SingleBatchOpt(dag, m);
  const Time prefix = std::min<Time>(opt, reduced.length());
  if (reduced.length() > prefix) {
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
