#include "check/diffrun.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "opt/brute_force.h"
#include "opt/lower_bounds.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"
#include "sim/engine.h"
#include "sim/observers.h"

namespace otsched {
namespace {

constexpr NodeId kBruteForceNodeCap = 16;

/// Pseudo-policy names for policy-independent checks.
constexpr const char* kStructuralPolicy = "<lpf-structural>";
constexpr const char* kLowerBoundsPolicy = "<lower-bounds>";
constexpr const char* kOptCertificatePolicy = "<opt-certificate>";

/// Exact OPT by exhaustive search when the instance is small enough;
/// 0 when it is not (callers fall back to the lower-bound certificate).
Time TryBruteOpt(const Instance& instance, int m) {
  if (instance.empty() || instance.total_work() > kBruteForceNodeCap) {
    return 0;
  }
  return BruteForceOpt(instance, m);
}

/// The flow floor: no feasible schedule can beat OPT, so a max flow below
/// a certified OPT (or any certified lower bound on it) convicts either
/// the certificate or the flow accounting.  Reported under the ratio
/// oracle: both directions certify the same denominator machinery.
OracleResult CheckFlowFloor(Time max_flow, Time floor, bool exact, int m) {
  if (max_flow != kInfiniteTime && max_flow < floor) {
    std::ostringstream detail;
    detail << "achieved max flow " << max_flow << " beats the "
           << (exact ? "certified OPT " : "certified lower bound ") << floor
           << " on " << m << " processors";
    return {OracleId::kRatioCeiling, false, detail.str()};
  }
  return {OracleId::kRatioCeiling, true, ""};
}

struct PolicyCaseConfig {
  const PolicySpec* spec = nullptr;
  std::uint64_t seed = 0;
  int m = 1;
  /// Assumed optimum handed to semi-batched Algorithm A (stays valid
  /// under shrinking: removing work keeps releases on the OPT/2 grid).
  Time known_opt = 0;
  /// Exact OPT certificate for floor/ceiling checks; 0 = derive from
  /// lower bounds / brute force on the spot.
  Time certified_opt = 0;
  bool brute_cross_check = false;
  /// Run the job-fault legs (FuzzOptions::job_faults threaded through so
  /// shrinking and `--replay` rerun the identical trials).
  bool job_faults = false;
};

/// FNV-1a over (seed, m, policy): the case identity hash behind every
/// derived trial dimension (record-mode toggle, fault leg).  Pure function
/// of the case — never global state — so `--replay` of a repro file
/// reproduces the exact same trials with no new headers.
std::uint64_t CaseIdentityHash(const PolicyCaseConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(cfg.seed);
  mix(static_cast<std::uint64_t>(cfg.m));
  for (const char c : cfg.spec->name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Whether a case also gets a flow-only rerun compared against the full
/// run.
bool FuzzRecordModeToggle(const PolicyCaseConfig& cfg) {
  return (CaseIdentityHash(cfg) & 1) == 0;
}

/// The case's fault-dimension spec: roughly half of all cases rerun under
/// an active fault model, alternating kRandomBlip / kBurstOutage with
/// hash-derived seed, rate and burst length.  Inactive (kNone) otherwise.
FaultSpec FuzzFaultSpec(const PolicyCaseConfig& cfg) {
  const std::uint64_t h = CaseIdentityHash(cfg);
  FaultSpec spec;
  if (((h >> 1) & 1) != 0) return spec;  // kNone: no fault leg
  spec.model = (((h >> 2) & 1) == 0) ? FaultModel::kRandomBlip
                                     : FaultModel::kBurstOutage;
  spec.seed = h;
  spec.rate = 0.15 + 0.05 * static_cast<double>((h >> 3) % 8);  // [.15,.5]
  spec.burst_len = 1 + static_cast<Time>((h >> 6) % 8);
  return spec;
}

/// The case's job-fault checkpoint policy, shared by both job-fault legs:
/// always kEveryKSlots.  A commit fires every k slots no matter how the
/// machine served the job, so every crash model is guaranteed to make
/// progress (any job served during a commit slot banks at least that
/// slot's work) and the engines' horizon-trip livelock check stays a
/// real-bug detector.  The service-coupled policies (kEveryKSubjobs,
/// kOnCompletion) CAN livelock against a fast-enough crash model by
/// design; they are exercised in the deterministic unit tests instead.
void DeriveCheckpointPolicy(std::uint64_t h, JobFaultSpec& spec) {
  spec.checkpoint = CheckpointPolicy::kEveryKSlots;
  spec.checkpoint_every = 2 + static_cast<std::int64_t>((h >> 9) % 6);
}

/// Domain-separated case hash for the job-fault dimension (distinct from
/// the capacity-fault stream so the two legs draw independent bits).
std::uint64_t JobFaultCaseHash(const PolicyCaseConfig& cfg) {
  std::uint64_t h = CaseIdentityHash(cfg);
  for (const char c : {'j', 'b', 'f'}) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The armed-but-silent spec for the kNoLostWorkWhenHealthy leg: the
/// fault machinery (commit tracking, checkpoint commits) runs, but
/// random-crash at rate 0 never fires, so the run must be bit-identical
/// to the plain one.
JobFaultSpec FuzzArmedJobFaultSpec(const PolicyCaseConfig& cfg) {
  const std::uint64_t h = JobFaultCaseHash(cfg);
  JobFaultSpec spec;
  spec.model = JobFaultModel::kRandomCrash;
  spec.seed = h;
  spec.rate = 0.0;
  DeriveCheckpointPolicy(h, spec);
  return spec;
}

/// The actively crashing spec for the committed-feasibility leg: the
/// three models round-robin on the case hash with hash-derived
/// parameters.  Every spec pairs with an interval checkpoint policy whose
/// interval is well below the periodic-crash period, so each run is
/// guaranteed to make progress (the horizon-trip livelock check stays a
/// real-bug detector, not a fuzz flake).
JobFaultSpec FuzzActiveJobFaultSpec(const PolicyCaseConfig& cfg) {
  const std::uint64_t h = JobFaultCaseHash(cfg);
  JobFaultSpec spec;
  spec.seed = h;
  switch (h % 3) {
    case 0:
      spec.model = JobFaultModel::kRandomCrash;
      spec.rate = 0.05 + 0.05 * static_cast<double>((h >> 2) % 6);  // [.05,.3]
      break;
    case 1:
      spec.model = JobFaultModel::kPeriodicCrash;
      spec.period = 16 + static_cast<std::int64_t>((h >> 2) % 48);  // [16,63]
      break;
    default:
      spec.model = JobFaultModel::kAdversarialLoss;
      spec.threshold = 2 + static_cast<std::int64_t>((h >> 2) % 8);  // [2,9]
      break;
  }
  DeriveCheckpointPolicy(h, spec);
  return spec;
}

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

/// Compares the faulted incremental run against the faulted reference
/// run: schedules, FlowSummary and SimStats (including the fault
/// counters) must be bit-identical — the engine-equivalence gate extended
/// to fluctuating budgets.
OracleResult CheckFaultedEquivalenceOracle(const SimResult& fast,
                                           const SimResult& reference) {
  std::ostringstream detail;
  if (fast.flows.completion != reference.flows.completion ||
      fast.flows.flow != reference.flows.flow ||
      fast.flows.max_flow != reference.flows.max_flow ||
      fast.flows.max_flow_job != reference.flows.max_flow_job ||
      fast.flows.all_completed != reference.flows.all_completed) {
    detail << "faulted FlowSummary diverges between engines (max_flow "
           << fast.flows.max_flow << " vs " << reference.flows.max_flow
           << ")";
    return {OracleId::kFaultedEngineEquivalence, false, detail.str()};
  }
  if (fast.stats.horizon != reference.stats.horizon ||
      fast.stats.executed_subjobs != reference.stats.executed_subjobs ||
      fast.stats.idle_processor_slots !=
          reference.stats.idle_processor_slots ||
      fast.stats.busy_slots != reference.stats.busy_slots ||
      fast.stats.faulted_slots != reference.stats.faulted_slots ||
      fast.stats.capacity_shortfall != reference.stats.capacity_shortfall) {
    detail << "faulted SimStats diverge between engines (faulted_slots "
           << fast.stats.faulted_slots << " vs "
           << reference.stats.faulted_slots << ", horizon "
           << fast.stats.horizon << " vs " << reference.stats.horizon << ")";
    return {OracleId::kFaultedEngineEquivalence, false, detail.str()};
  }
  if (fast.has_schedule() != reference.has_schedule() ||
      (fast.has_schedule() &&
       !SchedulesEqual(fast.full_schedule(), reference.full_schedule()))) {
    return {OracleId::kFaultedEngineEquivalence, false,
            "faulted schedules diverge between engines"};
  }
  return {OracleId::kFaultedEngineEquivalence, true, ""};
}

/// Compares a flow-only rerun against the recorded full run: FlowSummary
/// and SimStats must be bit-identical (the engines compute both online,
/// so any divergence convicts the record-mode plumbing).
OracleResult CheckRecordModeOracle(const SimResult& full,
                                   const SimResult& flow_only) {
  std::ostringstream detail;
  if (flow_only.has_schedule()) {
    return {OracleId::kRecordModeEquivalence, false,
            "flow-only run materialized a schedule"};
  }
  if (full.flows.completion != flow_only.flows.completion ||
      full.flows.flow != flow_only.flows.flow ||
      full.flows.max_flow != flow_only.flows.max_flow ||
      full.flows.max_flow_job != flow_only.flows.max_flow_job ||
      full.flows.all_completed != flow_only.flows.all_completed) {
    detail << "flow-only FlowSummary diverges from the full run (max_flow "
           << flow_only.flows.max_flow << " vs " << full.flows.max_flow
           << ")";
    return {OracleId::kRecordModeEquivalence, false, detail.str()};
  }
  if (full.stats.horizon != flow_only.stats.horizon ||
      full.stats.executed_subjobs != flow_only.stats.executed_subjobs ||
      full.stats.idle_processor_slots != flow_only.stats.idle_processor_slots ||
      full.stats.busy_slots != flow_only.stats.busy_slots) {
    detail << "flow-only SimStats diverge from the full run (horizon "
           << flow_only.stats.horizon << " vs " << full.stats.horizon << ")";
    return {OracleId::kRecordModeEquivalence, false, detail.str()};
  }
  return {OracleId::kRecordModeEquivalence, true, ""};
}

/// Runs one (policy, m, instance) case and returns every oracle verdict.
std::vector<OracleResult> RunPolicyCase(const PolicyCaseConfig& cfg,
                                        const Instance& instance,
                                        std::int64_t* simulations) {
  std::vector<OracleResult> results;
  if (instance.empty()) return results;

  std::unique_ptr<Scheduler> scheduler =
      cfg.spec->needs_semi_batched ? cfg.spec->make_semi_batched(cfg.known_opt)
                                   : cfg.spec->make(cfg.seed);
  // Every fuzz case doubles as an observability check: stream the trace
  // through the observer hooks and hold it against DeriveTrace below.
  // The schedule-dependent oracles need a full-mode run.
  EventTrace streamed;
  StreamingTraceObserver tracer(streamed);
  RunContext context;
  context.observer = &tracer;
  const SimResult run = Simulate(instance, cfg.m, *scheduler, context);
  if (simulations != nullptr) ++*simulations;

  // Full-record run: the feasibility and trace-equivalence oracles walk
  // the materialized schedule.
  results.push_back(CheckFeasibilityOracle(run.full_schedule(), instance));
  results.push_back(
      CheckTraceEquivalenceOracle(streamed, run.full_schedule(), instance));

  if (FuzzRecordModeToggle(cfg)) {
    // Flow-only leg: a fresh identically-seeded scheduler rerun with
    // RecordMode::kFlowOnly must reproduce the full run's aggregates.
    std::unique_ptr<Scheduler> flow_scheduler =
        cfg.spec->needs_semi_batched
            ? cfg.spec->make_semi_batched(cfg.known_opt)
            : cfg.spec->make(cfg.seed);
    const SimResult flow_only =
        Simulate(instance, cfg.m, *flow_scheduler, FlowOnlyOptions());
    if (simulations != nullptr) ++*simulations;
    results.push_back(CheckRecordModeOracle(run, flow_only));
  }

  SimOptions faulted_options;
  faulted_options.faults = FuzzFaultSpec(cfg);
  if (faulted_options.faults.active() &&
      RunSupportError(*scheduler, faulted_options).empty()) {
    // Fault dimension: rerun the case under a fluctuating budget on BOTH
    // engines.  The faulted schedule must stay feasible (axioms (1)-(4)
    // hold on a degraded machine too) and the engines must agree
    // bit-for-bit — the counter-based fault models make the streams a
    // pure function of (seed, slot), so any divergence convicts the
    // capacity plumbing, not the model.
    std::unique_ptr<Scheduler> faulted_scheduler =
        cfg.spec->needs_semi_batched
            ? cfg.spec->make_semi_batched(cfg.known_opt)
            : cfg.spec->make(cfg.seed);
    const SimResult faulted =
        Simulate(instance, cfg.m, *faulted_scheduler, faulted_options);
    std::unique_ptr<Scheduler> faulted_reference_scheduler =
        cfg.spec->needs_semi_batched
            ? cfg.spec->make_semi_batched(cfg.known_opt)
            : cfg.spec->make(cfg.seed);
    const SimResult faulted_reference = ReferenceSimulate(
        instance, cfg.m, *faulted_reference_scheduler, faulted_options);
    if (simulations != nullptr) *simulations += 2;
    results.push_back(
        CheckFeasibilityOracle(faulted.full_schedule(), instance));
    results.push_back(
        CheckFaultedEquivalenceOracle(faulted, faulted_reference));
  }

  RunContext faulted_context;
  faulted_context.options = FlowOnlyOptions();
  faulted_context.options.job_faults = FuzzActiveJobFaultSpec(cfg);
  if (cfg.job_faults &&
      RunSupportError(*scheduler, faulted_context.options).empty()) {
    // Job-fault dimension (sim/job_faults.h), two legs:
    //
    // (a) kNoLostWorkWhenHealthy: a flow-only rerun with the fault
    //     machinery ARMED (commit tracking on, checkpoints firing) but a
    //     rate-0 crash model must be bit-identical to a plain flow-only
    //     run — arming alone may never change behaviour.
    auto rerun_scheduler = [&cfg]() {
      return cfg.spec->needs_semi_batched
                 ? cfg.spec->make_semi_batched(cfg.known_opt)
                 : cfg.spec->make(cfg.seed);
    };
    std::unique_ptr<Scheduler> plain_scheduler = rerun_scheduler();
    const SimResult plain =
        Simulate(instance, cfg.m, *plain_scheduler, FlowOnlyOptions());
    SimOptions armed_options = FlowOnlyOptions();
    armed_options.job_faults = FuzzArmedJobFaultSpec(cfg);
    std::unique_ptr<Scheduler> armed_scheduler = rerun_scheduler();
    const SimResult armed =
        Simulate(instance, cfg.m, *armed_scheduler, armed_options);
    results.push_back(CheckNoLostWorkWhenHealthyOracle(plain, armed));

    // (b) committed feasibility: an actively crashing run, streamed, must
    //     satisfy the Section 3 axioms over the work that SURVIVED and
    //     reconcile executes == total work + wasted slots exactly.
    EventTrace faulted_trace;
    StreamingTraceObserver faulted_tracer(faulted_trace);
    faulted_context.observer = &faulted_tracer;
    std::unique_ptr<Scheduler> crash_scheduler = rerun_scheduler();
    const SimResult crashed =
        Simulate(instance, cfg.m, *crash_scheduler, faulted_context);
    results.push_back(CheckCommittedFeasibilityOracle(
        faulted_trace, instance, cfg.m, crashed.stats));
    if (simulations != nullptr) *simulations += 3;
  }

  Time exact = cfg.certified_opt;
  if (exact == 0 && cfg.brute_cross_check) {
    exact = TryBruteOpt(instance, cfg.m);
  }
  const Time floor =
      exact > 0 ? exact : MaxFlowLowerBound(instance, cfg.m);
  results.push_back(
      CheckFlowFloor(run.flows.max_flow, floor, exact > 0, cfg.m));

  if (cfg.spec->ratio_ceiling > 0) {
    results.push_back(CheckRatioCeilingOracle(instance, cfg.m,
                                              run.flows.max_flow,
                                              cfg.spec->ratio_ceiling,
                                              exact));
  }
  return results;
}

bool AnyFailed(const std::vector<OracleResult>& results, OracleId target,
               std::string* detail) {
  for (const OracleResult& r : results) {
    if (r.id == target && !r.ok) {
      if (detail != nullptr) *detail = r.detail;
      return true;
    }
  }
  return false;
}

// ---- shrinking helpers ----

Instance DropJob(const Instance& instance, JobId drop) {
  Instance out;
  out.set_name(instance.name());
  for (JobId i = 0; i < instance.job_count(); ++i) {
    if (i != drop) out.add_job(instance.job(i));
  }
  return out;
}

Instance ReplaceJobDag(const Instance& instance, JobId target, Dag pruned) {
  Instance out;
  out.set_name(instance.name());
  for (JobId i = 0; i < instance.job_count(); ++i) {
    if (i == target) {
      out.add_job(Job(std::move(pruned), instance.job(i).release(),
                      instance.job(i).name()));
    } else {
      out.add_job(instance.job(i));
    }
  }
  return out;
}

}  // namespace

Dag RemoveSubtree(const Dag& dag, NodeId root) {
  OTSCHED_CHECK(root >= 0 && root < dag.node_count(),
                "RemoveSubtree: node " << root << " out of range");
  std::vector<char> removed(static_cast<std::size_t>(dag.node_count()), 0);
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (removed[static_cast<std::size_t>(v)]) continue;
    removed[static_cast<std::size_t>(v)] = 1;
    for (NodeId c : dag.children(v)) stack.push_back(c);
  }
  std::vector<NodeId> relabel(static_cast<std::size_t>(dag.node_count()),
                              kInvalidNode);
  NodeId kept = 0;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    if (!removed[static_cast<std::size_t>(v)]) {
      relabel[static_cast<std::size_t>(v)] = kept++;
    }
  }
  Dag::Builder builder(kept);
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    if (removed[static_cast<std::size_t>(v)]) continue;
    for (NodeId c : dag.children(v)) {
      if (removed[static_cast<std::size_t>(c)]) continue;
      builder.add_edge(relabel[static_cast<std::size_t>(v)],
                       relabel[static_cast<std::size_t>(c)]);
    }
  }
  return std::move(builder).build();
}

Instance ShrinkInstance(const Instance& failing,
                        const FailurePredicate& still_fails, int max_evals,
                        std::int64_t* evals_used) {
  Instance current = failing;
  std::int64_t evals = 0;
  bool progress = true;
  while (progress && evals < max_evals) {
    progress = false;

    // Pass 1: drop whole jobs (cheapest big wins first).
    for (JobId i = 0; i < current.job_count() && evals < max_evals; ++i) {
      if (current.job_count() <= 1) break;
      Instance candidate = DropJob(current, i);
      ++evals;
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;  // restart the scan against the smaller instance
      }
    }
    if (progress) continue;

    // Pass 2: drop one subtree from one job.
    for (JobId i = 0; i < current.job_count() && !progress; ++i) {
      const Dag& dag = current.job(i).dag();
      for (NodeId v = 0; v < dag.node_count() && evals < max_evals; ++v) {
        Dag pruned = RemoveSubtree(dag, v);
        Instance candidate = pruned.empty()
                                 ? DropJob(current, i)
                                 : ReplaceJobDag(current, i, std::move(pruned));
        if (candidate.empty()) continue;
        ++evals;
        if (still_fails(candidate)) {
          current = std::move(candidate);
          progress = true;
          break;
        }
      }
    }
  }
  if (evals_used != nullptr) *evals_used += evals;
  return current;
}

namespace {

struct SeedOutcome {
  std::int64_t simulations = 0;
  std::int64_t oracle_checks = 0;
  std::int64_t shrink_evals = 0;
  std::vector<FuzzFailure> failures;
};

/// Failures per seed are capped: a systematic bug fires on every policy
/// and machine size, and one shrunk repro per few cases is worth more
/// than a thousand copies of the same stack of violations.
constexpr std::size_t kMaxFailuresPerSeed = 8;

std::string SanitizeForFilename(std::string text) {
  for (char& c : text) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '-';
  }
  return text;
}

void RecordFailure(const FuzzOptions& options, SeedOutcome& outcome,
                   const std::string& policy, int m, std::uint64_t seed,
                   OracleId oracle, const std::string& detail,
                   const Instance& instance, const std::string& kind,
                   Time known_opt, const FailurePredicate& still_fails) {
  FuzzFailure failure;
  failure.policy = policy;
  failure.m = m;
  failure.seed = seed;
  failure.oracle = oracle;
  failure.detail = detail;

  Instance shrunk =
      still_fails ? ShrinkInstance(instance, still_fails,
                                   options.max_shrink_evals,
                                   &outcome.shrink_evals)
                  : instance;

  std::ostringstream text;
  text << "# otsched_fuzz repro (deterministic; re-run with"
       << " `otsched_fuzz --replay <this file>`)\n"
       << "# policy: " << policy << "\n"
       << "# m: " << m << "\n"
       << "# seed: " << seed << "\n";
  if (known_opt > 0) text << "# known-opt: " << known_opt << "\n";
  text << "# oracle: " << ToString(oracle) << "\n"
       << "# detail: " << detail << "\n"
       << InstanceToText(shrunk);
  failure.instance_text = text.str();

  if (!options.repro_dir.empty()) {
    std::ostringstream name;
    name << "repro_seed" << seed << "_m" << m << '_'
         << SanitizeForFilename(policy) << '_'
         << SanitizeForFilename(ToString(oracle)) << '_' << kind << ".inst";
    const std::filesystem::path path =
        std::filesystem::path(options.repro_dir) / name.str();
    std::ofstream out(path);
    if (out.good()) {
      out << failure.instance_text;
      failure.repro_path = path.string();
    }
  }
  outcome.failures.push_back(std::move(failure));
}

/// The certificate oracle's fault leg: a deterministic BudgetTrace
/// derived purely from (seed, m).  Roughly half the cells get an empty
/// trace (healthy-machine sandwich only); the rest pin a short prefix of
/// slots to hash-derived capacities in [0, m], including hard m_t = 0
/// stalls.  Pure function of the cell — a replayed repro regenerates the
/// identical trace from its `# seed:` / `# m:` headers, so the
/// certificate leg needs no new repro state.
BudgetTrace CertificateBudgetTrace(std::uint64_t seed, int m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(seed);
  mix(static_cast<std::uint64_t>(m));
  mix(0x6365727469ULL);  // domain-separate from CaseIdentityHash
  BudgetTrace trace;
  if ((h & 1) != 0) return trace;
  const int pins = 1 + static_cast<int>((h >> 1) % 6);
  Time slot = 1 + static_cast<Time>((h >> 4) % 3);
  for (int i = 0; i < pins; ++i) {
    const int capacity =
        static_cast<int>((h >> (8 + 4 * i)) % static_cast<std::uint64_t>(m + 1));
    trace.set(slot, capacity);
    slot += 1 + static_cast<Time>((h >> (12 + 4 * i)) % 3);
  }
  return trace;
}

/// The certified lower-bound leg: runs CheckOptLowerBoundOracle on one
/// (instance, m) cell — healthy or, on hash-selected cells, under the
/// deterministic CertificateBudgetTrace — and records any violation under
/// the "<opt-certificate>" pseudo-policy.  `certified_opt` > 0
/// additionally pits the certificates against a generator-certified exact
/// OPT (the differential direction: certificate vs construction).
void RunCertificateCheck(const FuzzOptions& options, SeedOutcome& outcome,
                         std::uint64_t seed, int m, const Instance& instance,
                         const std::string& kind, Time certified_opt) {
  if (outcome.failures.size() >= kMaxFailuresPerSeed) return;
  const BudgetTrace trace = CertificateBudgetTrace(seed, m);
  OptBoundCheckOptions check;
  check.budget = trace.empty() ? nullptr : &trace;
  check.cross_check_brute_force = options.cross_check_brute_force;
  // The generator certifies OPT on a HEALTHY machine; under a degraded
  // budget the true optimum (and so the certified bound) may exceed it,
  // so the exact-OPT cross-check only applies to healthy cells.
  check.certified_opt = trace.empty() ? certified_opt : 0;
  ++outcome.oracle_checks;
  const OracleResult result = CheckOptLowerBoundOracle(instance, m, check);
  if (result.ok) return;
  const int m_local = m;
  const bool brute = options.cross_check_brute_force;
  const std::uint64_t seed_local = seed;
  RecordFailure(
      options, outcome, kOptCertificatePolicy, m, seed, result.id,
      result.detail, instance, kind, /*known_opt=*/0,
      // Shrink against the same cell, but drop the exact-OPT certificate:
      // it only covers the original instance.
      [m_local, brute, seed_local](const Instance& candidate) {
        if (candidate.empty()) return false;
        const BudgetTrace rerun_trace =
            CertificateBudgetTrace(seed_local, m_local);
        OptBoundCheckOptions rerun;
        rerun.budget = rerun_trace.empty() ? nullptr : &rerun_trace;
        rerun.cross_check_brute_force = brute;
        return !CheckOptLowerBoundOracle(candidate, m_local, rerun).ok;
      });
}

/// Runs every applicable policy on one instance and records violations.
void RunPolicyGrid(const FuzzOptions& options, SeedOutcome& outcome,
                   std::uint64_t seed, int m, const Instance& instance,
                   const std::string& kind, Time certified_opt,
                   Time known_opt, bool semi_batched_certified) {
  for (const PolicySpec& spec : AllPolicies()) {
    if (outcome.failures.size() >= kMaxFailuresPerSeed) return;
    if (!PolicyApplies(spec, instance.all_out_forests(),
                       semi_batched_certified, m)) {
      continue;
    }
    PolicyCaseConfig cfg;
    cfg.spec = &spec;
    cfg.seed = seed;
    cfg.m = m;
    cfg.known_opt = known_opt;
    cfg.certified_opt = certified_opt;
    cfg.brute_cross_check = options.cross_check_brute_force;
    cfg.job_faults = options.job_faults;

    const std::vector<OracleResult> results =
        RunPolicyCase(cfg, instance, &outcome.simulations);
    outcome.oracle_checks += static_cast<std::int64_t>(results.size());

    for (const OracleResult& result : results) {
      if (result.ok) continue;
      // Shrink against the same case, but re-derive the floor/ceiling
      // denominators per candidate: the exact-OPT certificate only covers
      // the original instance.
      PolicyCaseConfig shrink_cfg = cfg;
      shrink_cfg.certified_opt = 0;
      const OracleId target = result.id;
      FailurePredicate still_fails =
          [shrink_cfg, target](const Instance& candidate) {
            const std::vector<OracleResult> rerun =
                RunPolicyCase(shrink_cfg, candidate, nullptr);
            return AnyFailed(rerun, target, nullptr);
          };
      RecordFailure(options, outcome, spec.name, m, seed, result.id,
                    result.detail, instance, kind, known_opt, still_fails);
      if (outcome.failures.size() >= kMaxFailuresPerSeed) return;
    }
  }
}

SeedOutcome RunSeed(const FuzzOptions& options, std::uint64_t seed) {
  SeedOutcome outcome;
  Rng rng(options.seed_base + seed * 0x9E3779B97F4A7C15ULL);

  // ---- instance 1: general online mix ----
  const int jobs =
      2 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(std::max(1, options.max_jobs - 1))));
  const NodeId max_nodes = std::max<NodeId>(4, options.max_job_nodes);
  Instance general = MakePoissonArrivals(
      jobs, 0.15,
      [max_nodes](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(
                            4 + r.next_below(
                                    static_cast<std::uint64_t>(max_nodes - 3))),
                        r);
      },
      rng);
  {
    std::ostringstream name;
    name << "fuzz-general-seed" << seed;
    general.set_name(name.str());
  }

  for (int m : options.machine_sizes) {
    if (outcome.failures.size() >= kMaxFailuresPerSeed) return outcome;

    // Certificate soundness: the lower bounds may never exceed true OPT.
    if (options.cross_check_brute_force) {
      const Time brute = TryBruteOpt(general, m);
      if (brute > 0) {
        ++outcome.oracle_checks;
        const Time lb = MaxFlowLowerBound(general, m);
        if (lb > brute) {
          std::ostringstream detail;
          detail << "lower bound " << lb << " exceeds brute-force OPT "
                 << brute << " on " << m << " processors";
          const int m_local = m;
          RecordFailure(
              options, outcome, kLowerBoundsPolicy, m, seed,
              OracleId::kRatioCeiling, detail.str(), general, "gen",
              /*known_opt=*/0, [m_local](const Instance& candidate) {
                const Time candidate_brute = TryBruteOpt(candidate, m_local);
                return candidate_brute > 0 &&
                       MaxFlowLowerBound(candidate, m_local) >
                           candidate_brute;
              });
        }
      }
    }

    // Certified-bound sandwich on the same cell (healthy + derived
    // budget-trace legs).
    if (options.opt_certificates) {
      RunCertificateCheck(options, outcome, seed, m, general, "gen",
                          /*certified_opt=*/0);
    }

    RunPolicyGrid(options, outcome, seed, m, general, "gen",
                  /*certified_opt=*/0, /*known_opt=*/0,
                  /*semi_batched_certified=*/false);
  }

  // ---- instance 2: certified semi-batched (exact OPT known) ----
  for (int m : options.machine_sizes) {
    if (outcome.failures.size() >= kMaxFailuresPerSeed) return outcome;
    if (m % 4 != 0 || m < 2) continue;  // pipelined gen needs m even;
                                        // Algorithm A needs alpha | m
    const Time delta = 1 + static_cast<Time>(rng.next_below(3));
    const int batches = 2 + static_cast<int>(rng.next_below(3));
    CertifiedInstance certified =
        MakePipelinedSemiBatchedInstance(m, delta, batches, rng);
    {
      std::ostringstream name;
      name << "fuzz-certified-seed" << seed << "-m" << m;
      certified.instance.set_name(name.str());
    }
    // The differential direction: the certificates must stay below the
    // generator-certified exact OPT.
    if (options.opt_certificates) {
      RunCertificateCheck(options, outcome, seed, m, certified.instance,
                          "cert", /*certified_opt=*/certified.opt);
    }
    RunPolicyGrid(options, outcome, seed, m, certified.instance, "cert",
                  /*certified_opt=*/certified.opt,
                  /*known_opt=*/certified.opt,
                  /*semi_batched_certified=*/true);
  }

  // ---- single-job structural oracles on the generated trees ----
  const int alpha = options.alpha;
  const JobId structural_jobs = std::min<JobId>(2, general.job_count());
  for (JobId j = 0; j < structural_jobs; ++j) {
    for (int m : options.machine_sizes) {
      if (outcome.failures.size() >= kMaxFailuresPerSeed) return outcome;
      const Dag& dag = general.job(j).dag();
      const std::vector<OracleResult> results = CheckSingleJobOracles(
          dag, m, alpha, options.cross_check_brute_force);
      outcome.oracle_checks += static_cast<std::int64_t>(results.size());
      for (const OracleResult& result : results) {
        if (result.ok) continue;
        Instance single;
        single.add_job(Job(Dag(dag), 0));
        {
          std::ostringstream name;
          name << "fuzz-structural-seed" << seed << "-job" << j;
          single.set_name(name.str());
        }
        const OracleId target = result.id;
        const int m_local = m;
        const bool brute = options.cross_check_brute_force;
        RecordFailure(
            options, outcome, kStructuralPolicy, m, seed, result.id,
            result.detail, single, "tree",
            /*known_opt=*/0,
            [target, m_local, alpha, brute](const Instance& candidate) {
              if (candidate.empty()) return false;
              const std::vector<OracleResult> rerun = CheckSingleJobOracles(
                  candidate.job(0).dag(), m_local, alpha, brute);
              return AnyFailed(rerun, target, nullptr);
            });
      }
    }
  }
  return outcome;
}

}  // namespace

std::string FuzzReport::summary() const {
  std::ostringstream out;
  out << "otsched_fuzz: " << simulations << " simulations, " << oracle_checks
      << " oracle checks, " << shrink_evals << " shrink evaluations, "
      << failures.size() << " invariant violation"
      << (failures.size() == 1 ? "" : "s") << "\n";
  for (const FuzzFailure& failure : failures) {
    out << "  [" << ToString(failure.oracle) << "] policy=" << failure.policy
        << " m=" << failure.m << " seed=" << failure.seed << ": "
        << failure.detail << "\n";
    if (!failure.repro_path.empty()) {
      out << "    repro: " << failure.repro_path << "\n";
    }
  }
  return out.str();
}

FuzzReport RunDifferentialFuzz(const FuzzOptions& options) {
  OTSCHED_CHECK(options.seeds >= 1, "need at least one fuzz seed");
  OTSCHED_CHECK(!options.machine_sizes.empty(),
                "need at least one machine size");
  for (int m : options.machine_sizes) {
    OTSCHED_CHECK(m >= 1, "machine sizes must be positive, got " << m);
  }
  OTSCHED_CHECK(options.alpha >= 2, "alpha must be at least 2");

  if (!options.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.repro_dir, ec);
    OTSCHED_CHECK(!ec, "cannot create repro directory "
                           << options.repro_dir << ": " << ec.message());
  }

  const BatchRunner runner(options.workers);
  std::vector<SeedOutcome> outcomes = runner.Map<SeedOutcome>(
      static_cast<std::size_t>(options.seeds), [&](std::size_t i) {
        return RunSeed(options, static_cast<std::uint64_t>(i));
      });

  FuzzReport report;
  for (SeedOutcome& outcome : outcomes) {
    report.simulations += outcome.simulations;
    report.oracle_checks += outcome.oracle_checks;
    report.shrink_evals += outcome.shrink_evals;
    for (FuzzFailure& failure : outcome.failures) {
      report.failures.push_back(std::move(failure));
    }
  }
  return report;
}

FuzzReport ReplayRepro(const std::string& repro_text,
                       const FuzzOptions& options) {
  // Parse the provenance headers the harness wrote.
  std::string policy;
  int m = 1;
  std::uint64_t seed = 0;
  Time known_opt = 0;
  {
    std::istringstream in(repro_text);
    std::string line;
    while (std::getline(in, line)) {
      auto field = [&line](const char* key) -> std::string {
        const std::string prefix = std::string("# ") + key + ": ";
        if (line.rfind(prefix, 0) != 0) return "";
        return line.substr(prefix.size());
      };
      if (std::string v = field("policy"); !v.empty()) policy = v;
      if (std::string v = field("m"); !v.empty()) m = std::stoi(v);
      if (std::string v = field("seed"); !v.empty()) seed = std::stoull(v);
      if (std::string v = field("known-opt"); !v.empty()) {
        known_opt = std::stoll(v);
      }
    }
  }
  FuzzReport report;
  // Repro files are hand-editable; a broken header is a reported failure,
  // not a contract violation.
  auto malformed = [&](const std::string& detail) {
    FuzzFailure failure;
    failure.policy = "<malformed-repro>";
    failure.m = m;
    failure.seed = seed;
    failure.detail = detail;
    failure.instance_text = repro_text;
    report.failures.push_back(std::move(failure));
    return report;
  };
  if (policy.empty()) {
    return malformed("repro file is missing the '# policy:' header");
  }
  const Instance instance = InstanceFromText(repro_text);

  auto record = [&](const OracleResult& result) {
    ++report.oracle_checks;
    if (result.ok) return;
    FuzzFailure failure;
    failure.policy = policy;
    failure.m = m;
    failure.seed = seed;
    failure.oracle = result.id;
    failure.detail = result.detail;
    failure.instance_text = repro_text;
    report.failures.push_back(std::move(failure));
  };

  if (policy == kStructuralPolicy) {
    if (instance.empty()) return malformed("structural repro has no job");
    for (const OracleResult& result :
         CheckSingleJobOracles(instance.job(0).dag(), m, options.alpha,
                               options.cross_check_brute_force)) {
      record(result);
    }
    return report;
  }
  if (policy == kOptCertificatePolicy) {
    // Re-derive the cell's budget trace from the headers (pure function
    // of seed and m) and re-run the certificate sandwich.  The exact-OPT
    // cross-check is dropped: the generator's certificate covered the
    // original, unshrunk instance only.
    const BudgetTrace trace = CertificateBudgetTrace(seed, m);
    OptBoundCheckOptions check;
    check.budget = trace.empty() ? nullptr : &trace;
    check.cross_check_brute_force = options.cross_check_brute_force;
    record(CheckOptLowerBoundOracle(instance, m, check));
    return report;
  }
  if (policy == kLowerBoundsPolicy) {
    const Time brute = TryBruteOpt(instance, m);
    const Time lb = MaxFlowLowerBound(instance, m);
    OracleResult result{OracleId::kRatioCeiling, true, ""};
    if (brute > 0 && lb > brute) {
      std::ostringstream detail;
      detail << "lower bound " << lb << " exceeds brute-force OPT " << brute
             << " on " << m << " processors";
      result = {OracleId::kRatioCeiling, false, detail.str()};
    }
    record(result);
    return report;
  }

  const PolicySpec* spec = nullptr;
  for (const PolicySpec& candidate : AllPolicies()) {
    if (candidate.name == policy) spec = &candidate;
  }
  if (spec == nullptr) {
    return malformed("unknown policy in repro: " + policy);
  }
  if (spec->needs_semi_batched && known_opt <= 0) {
    return malformed("semi-batched repro is missing the '# known-opt:' header");
  }
  PolicyCaseConfig cfg;
  cfg.spec = spec;
  cfg.seed = seed;
  cfg.m = m;
  cfg.known_opt = known_opt;
  cfg.brute_cross_check = options.cross_check_brute_force;
  cfg.job_faults = options.job_faults;
  for (const OracleResult& result :
       RunPolicyCase(cfg, instance, &report.simulations)) {
    record(result);
  }
  return report;
}

}  // namespace otsched
