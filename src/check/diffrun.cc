#include "check/diffrun.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "common/assert.h"
#include "common/fnv.h"
#include "common/parse.h"
#include "common/rng.h"
#include "core/alg_a.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "opt/lower_bounds.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"
#include "sim/engine.h"
#include "sim/observers.h"

namespace otsched {
namespace {

/// Pseudo-policy names for policy-independent checks.
constexpr const char* kStructuralPolicy = "<lpf-structural>";
constexpr const char* kLowerBoundsPolicy = "<lower-bounds>";
constexpr const char* kOptCertificatePolicy = "<opt-certificate>";

/// One fuzz case: everything CheckCase needs besides the instance.  A
/// repro file's headers carry every field but `certified_opt`.
struct FuzzCase {
  /// A registry policy name or one of the pseudo-policies above.
  std::string policy;
  int m = 1;
  std::uint64_t seed = 0;
  /// Assumed optimum handed to semi-batched Algorithm A (stays valid
  /// under shrinking: removing work keeps releases on the OPT/2 grid).
  Time known_opt = 0;
  /// Generator-certified exact OPT for the floor, ceiling and certificate
  /// checks; 0 = derive from lower bounds / brute force on the spot.  It
  /// covers the unshrunk instance only, so shrinking and repros drop it.
  Time certified_opt = 0;
  /// The Section 5 reduction factor of the structural oracles.
  int alpha = 4;
  /// Cross-check against exhaustive search on small instances.
  bool brute = true;
  /// Add the job-fault legs to a registry policy's case.
  bool job_faults = false;
};

/// FNV-1a over (seed, m, policy): the case identity hash behind every
/// derived trial dimension (record-mode toggle, fault leg).  Pure function
/// of the case — never global state — so `--replay` of a repro file
/// reproduces the exact same trials.
std::uint64_t CaseIdentityHash(const FuzzCase& c) {
  const std::uint64_t m = static_cast<std::uint64_t>(c.m);
  return Fnv1a(Fnv1a(Fnv1a(kFnvOffset, c.seed), m), c.policy);
}

/// Whether a case also gets a flow-only rerun compared against the full
/// run.
bool FuzzRecordModeToggle(const FuzzCase& c) {
  return (CaseIdentityHash(c) & 1) == 0;
}

/// The case's fault-dimension spec: roughly half of all cases rerun under
/// an active fault model, alternating kRandomBlip / kBurstOutage with
/// hash-derived seed, rate and burst length.  Inactive (kNone) otherwise.
FaultSpec FuzzFaultSpec(const FuzzCase& c) {
  const std::uint64_t h = CaseIdentityHash(c);
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
std::uint64_t JobFaultCaseHash(const FuzzCase& c) {
  return Fnv1a(CaseIdentityHash(c), "jbf");
}

/// The armed-but-silent spec for the kNoLostWorkWhenHealthy leg: the
/// fault machinery (commit tracking, checkpoint commits) runs, but
/// random-crash at rate 0 never fires, so the run must be bit-identical
/// to the plain one.
JobFaultSpec FuzzArmedJobFaultSpec(const FuzzCase& c) {
  const std::uint64_t h = JobFaultCaseHash(c);
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
JobFaultSpec FuzzActiveJobFaultSpec(const FuzzCase& c) {
  const std::uint64_t h = JobFaultCaseHash(c);
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

/// The certificate oracle's fault leg: a deterministic BudgetTrace
/// derived purely from (seed, m).  Roughly half the cells get an empty
/// trace (healthy-machine sandwich only); the rest pin a short prefix of
/// slots to hash-derived capacities in [0, m], including hard m_t = 0
/// stalls.  Pure function of the cell, so a replayed repro regenerates
/// the identical trace from its `# seed:` / `# m:` headers.
BudgetTrace CertificateBudgetTrace(std::uint64_t seed, int m) {
  // Domain-separated from CaseIdentityHash by the trailing constant.
  const std::uint64_t h = Fnv1a(
      Fnv1a(Fnv1a(kFnvOffset, seed), static_cast<std::uint64_t>(m)),
      std::uint64_t{0x6365727469ULL});
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

/// A verdict from a run comparison: ok iff `difference` is empty.
OracleResult SameRunVerdict(OracleId id, std::string difference) {
  return {id, difference.empty(), std::move(difference)};
}

/// Runs one registry-policy case and returns every oracle verdict.
std::vector<OracleResult> RunPolicyCase(const FuzzCase& c,
                                        const PolicySpec& spec,
                                        const Instance& instance,
                                        std::int64_t* simulations) {
  std::vector<OracleResult> results;
  if (instance.empty()) return results;

  // Every leg runs a fresh, identically seeded scheduler.
  const auto make_scheduler = [&spec, &c]() {
    return spec.make(c.seed, c.known_opt);
  };
  const std::unique_ptr<Scheduler> scheduler = make_scheduler();
  // Every fuzz case doubles as an observability check: stream the trace
  // through the observer hooks and hold it against DeriveTrace below.
  // The schedule-dependent oracles need a full-mode run.
  EventTrace streamed;
  StreamingTraceObserver tracer(streamed);
  RunContext context;
  context.observer = &tracer;
  const SimResult run = Simulate(instance, c.m, *scheduler, context);
  ++*simulations;

  // Full-record run: the feasibility and trace-equivalence oracles walk
  // the materialized schedule.
  results.push_back(CheckFeasibilityOracle(run.full_schedule(), instance));
  results.push_back(
      CheckTraceEquivalenceOracle(streamed, run.full_schedule(), instance));

  if (FuzzRecordModeToggle(c)) {
    // Flow-only leg: a rerun with RecordMode::kFlowOnly must reproduce the
    // full run's aggregates.
    const SimResult flow_only =
        Simulate(instance, c.m, *make_scheduler(), FlowOnlyOptions());
    ++*simulations;
    results.push_back(SameRunVerdict(
        OracleId::kRecordModeEquivalence,
        flow_only.has_schedule() ? "the flow-only run materialized a schedule"
                                 : FirstRunDifference(run, flow_only)));
  }

  SimOptions faulted_options;
  faulted_options.faults = FuzzFaultSpec(c);
  if (faulted_options.faults.active() &&
      RunSupportError(*scheduler, faulted_options).empty()) {
    // Fault dimension: rerun the case under a fluctuating budget on BOTH
    // engines.  The faulted schedule must stay feasible (axioms (1)-(4)
    // hold on a degraded machine too) and the engines must agree
    // bit-for-bit — the counter-based fault models make the streams a
    // pure function of (seed, slot), so any divergence convicts the
    // capacity plumbing, not the model.
    const SimResult faulted =
        Simulate(instance, c.m, *make_scheduler(), faulted_options);
    const SimResult faulted_reference =
        ReferenceSimulate(instance, c.m, *make_scheduler(), faulted_options);
    *simulations += 2;
    results.push_back(
        CheckFeasibilityOracle(faulted.full_schedule(), instance));
    results.push_back(SameRunVerdict(
        OracleId::kFaultedEngineEquivalence,
        faulted.has_schedule() != faulted_reference.has_schedule()
            ? "only one engine recorded a schedule"
            : FirstRunDifference(faulted, faulted_reference)));
  }

  RunContext faulted_context;
  faulted_context.options = FlowOnlyOptions();
  faulted_context.options.job_faults = FuzzActiveJobFaultSpec(c);
  if (c.job_faults &&
      RunSupportError(*scheduler, faulted_context.options).empty()) {
    // Job-fault dimension (sim/job_faults.h), two legs:
    //
    // (a) kNoLostWorkWhenHealthy: a flow-only rerun with the fault
    //     machinery ARMED (commit tracking on, checkpoints firing) but a
    //     rate-0 crash model must be bit-identical to a plain flow-only
    //     run — arming alone may never change behaviour.
    const SimResult plain =
        Simulate(instance, c.m, *make_scheduler(), FlowOnlyOptions());
    SimOptions armed_options = FlowOnlyOptions();
    armed_options.job_faults = FuzzArmedJobFaultSpec(c);
    const SimResult armed =
        Simulate(instance, c.m, *make_scheduler(), armed_options);
    results.push_back(CheckNoLostWorkWhenHealthyOracle(plain, armed));

    // (b) committed feasibility: an actively crashing run, streamed, must
    //     satisfy the Section 3 axioms over the work that SURVIVED and
    //     reconcile executes == total work + wasted slots exactly.
    EventTrace faulted_trace;
    StreamingTraceObserver faulted_tracer(faulted_trace);
    faulted_context.observer = &faulted_tracer;
    const SimResult crashed =
        Simulate(instance, c.m, *make_scheduler(), faulted_context);
    results.push_back(CheckCommittedFeasibilityOracle(
        faulted_trace, instance, c.m, crashed.stats));
    *simulations += 3;
  }

  Time exact = c.certified_opt;
  if (exact == 0 && c.brute) exact = TryBruteOpt(instance, c.m);
  const Time floor = exact > 0 ? exact : MaxFlowLowerBound(instance, c.m);
  results.push_back(CheckFlowFloor(run.flows.max_flow, floor, exact > 0, c.m));

  if (spec.ratio_ceiling > 0) {
    results.push_back(CheckRatioCeilingOracle(
        instance, c.m, run.flows.max_flow, spec.ratio_ceiling, exact));
  }
  return results;
}

/// "" when the case can run on `instance`, otherwise why it cannot.  The
/// grid skips refused cases; `--replay` reports them as malformed repros.
std::string CaseError(const FuzzCase& c, const Instance& instance) {
  if (c.m < 1) return "m must be at least 1";
  if (c.alpha < 2) return "alpha must be at least 2";
  if (instance.empty()) return "the instance has no job";
  if (c.policy == kStructuralPolicy || c.policy == kLowerBoundsPolicy ||
      c.policy == kOptCertificatePolicy) {
    return "";
  }
  const PolicySpec* spec = FindPolicy(c.policy);
  if (spec == nullptr) return "unknown policy '" + c.policy + "'";
  // Harness rule: the known-opt must be certified, never the fallback.
  if (spec->needs_known_opt && c.known_opt <= 0) {
    return "policy '" + c.policy + "' needs a certified known-opt";
  }
  return PolicyError(*spec, instance, c.m, c.known_opt);
}

/// Every oracle verdict of one case on one instance; adds the simulations
/// it ran to `*simulations`.  Requires CaseError(c, instance) to be empty
/// (shrinking preserves that).  Each pseudo-policy's check is written
/// here once, for the grid, the shrinker and `--replay` alike; a registry
/// policy goes to RunPolicyCase.
std::vector<OracleResult> CheckCase(const FuzzCase& c,
                                    const Instance& instance,
                                    std::int64_t* simulations) {
  if (c.policy == kStructuralPolicy) {
    // Corollary 5.4 and Lemmas 5.2 / 5.5 on the instance's only job.
    if (instance.empty()) return {};
    return CheckSingleJobOracles(instance.job(0).dag(), c.m, c.alpha,
                                 c.brute);
  }
  if (c.policy == kLowerBoundsPolicy) {
    // Certificate soundness: the lower bounds may never exceed true OPT.
    const Time brute = c.brute ? TryBruteOpt(instance, c.m) : 0;
    if (brute == 0) return {};
    const Time lb = MaxFlowLowerBound(instance, c.m);
    if (lb <= brute) return {{OracleId::kRatioCeiling, true, ""}};
    std::ostringstream detail;
    detail << "lower bound " << lb << " exceeds brute-force OPT " << brute
           << " on " << c.m << " processors";
    return {{OracleId::kRatioCeiling, false, detail.str()}};
  }
  if (c.policy == kOptCertificatePolicy) {
    // The certified lower-bound sandwich, healthy or under the cell's
    // CertificateBudgetTrace.  `certified_opt` > 0 additionally pits the
    // certificates against the generator's exact OPT — which covers a
    // HEALTHY machine only: under a degraded budget the true optimum may
    // exceed it, so that cross-check only applies to healthy cells.
    const BudgetTrace trace = CertificateBudgetTrace(c.seed, c.m);
    OptBoundCheckOptions check;
    check.budget = trace.empty() ? nullptr : &trace;
    check.cross_check_brute_force = c.brute;
    check.certified_opt = trace.empty() ? c.certified_opt : 0;
    return {CheckOptLowerBoundOracle(instance, c.m, check)};
  }
  return RunPolicyCase(c, *FindPolicy(c.policy), instance, simulations);
}

bool AnyFailed(const std::vector<OracleResult>& results, OracleId target) {
  for (const OracleResult& r : results) {
    if (r.id == target && !r.ok) return true;
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

/// The repro headers that select a case: every FuzzCase field except
/// `certified_opt`, the optional ones only when they differ from their
/// defaults.
std::string CaseHeaders(const FuzzCase& c) {
  const FuzzCase d;
  std::ostringstream out;
  out << "# policy: " << c.policy << "\n"
      << "# m: " << c.m << "\n"
      << "# seed: " << c.seed << "\n";
  if (c.known_opt != d.known_opt) {
    out << "# known-opt: " << c.known_opt << '\n';
  }
  if (c.alpha != d.alpha) out << "# alpha: " << c.alpha << '\n';
  if (c.brute != d.brute) out << "# brute-force: 0\n";
  if (c.job_faults != d.job_faults) out << "# job-faults: 1\n";
  return out.str();
}

/// Reads CaseHeaders' lines back into `*c` (other `# key: value` lines
/// are ignored); returns "" or what is wrong with the headers.
std::string ParseCaseHeaders(const std::string& text, FuzzCase* c) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(": ");
    if (line.rfind("# ", 0) != 0 || colon == std::string::npos) continue;
    const std::string key = line.substr(2, colon - 2);
    const std::string value = line.substr(colon + 2);
    const auto parse_flag = [&value](bool* out) {
      if (value != "0" && value != "1") return false;
      *out = value == "1";
      return true;
    };
    bool ok = true;
    if (key == "policy") {
      c->policy = value;
    } else if (key == "m") {
      ok = ParseNonNegative(value, &c->m);
    } else if (key == "seed") {
      ok = ParseNonNegative(value, &c->seed);
    } else if (key == "known-opt") {
      ok = ParseNonNegative(value, &c->known_opt);
    } else if (key == "alpha") {
      ok = ParseNonNegative(value, &c->alpha);
    } else if (key == "brute-force") {
      ok = parse_flag(&c->brute);
    } else if (key == "job-faults") {
      ok = parse_flag(&c->job_faults);
    }
    if (!ok) {
      return "bad value '" + value + "' in the '# " + key + ":' header";
    }
  }
  if (c->policy.empty()) {
    return "repro file is missing the '# policy:' header";
  }
  return "";
}

/// Shrinks a violation of `result` by `c` on `instance` and records it,
/// with its repro, in `outcome`.
void RecordFailure(const FuzzOptions& options, SeedOutcome& outcome,
                   const FuzzCase& c, const OracleResult& result,
                   const Instance& instance, const std::string& kind) {
  // Shrink against the same case, minus the exact-OPT certificate: it
  // only covers the original instance.
  FuzzCase shrink_case = c;
  shrink_case.certified_opt = 0;
  const Instance shrunk = ShrinkInstance(
      instance,
      [&shrink_case, &result](const Instance& candidate) {
        std::int64_t simulations = 0;
        return AnyFailed(CheckCase(shrink_case, candidate, &simulations),
                         result.id);
      },
      options.max_shrink_evals, &outcome.shrink_evals);

  std::ostringstream text;
  text << "# otsched_fuzz repro (deterministic; re-run with"
       << " `otsched_fuzz --replay <this file>`)\n"
       << CaseHeaders(c) << "# oracle: " << ToString(result.id) << "\n"
       << "# detail: " << result.detail << "\n"
       << InstanceToText(shrunk);
  FuzzFailure failure{c.policy,      c.m,        c.seed, result.id,
                      result.detail, text.str(), /*repro_path=*/""};

  if (!options.repro_dir.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(options.repro_dir) /
        ReproFileName(c.seed, c.m, c.policy, result.id, kind,
                      outcome.failures.size());
    std::ofstream out(path);
    if (out.good()) {
      out << failure.instance_text;
      failure.repro_path = path.string();
    }
  }
  outcome.failures.push_back(std::move(failure));
}

/// Runs one grid case, unless CaseError refuses it, and records each
/// violation until the seed reaches its failure cap.
void RunCase(const FuzzOptions& options, SeedOutcome& outcome,
             const FuzzCase& c, const Instance& instance,
             const std::string& kind) {
  if (outcome.failures.size() >= kMaxFailuresPerSeed ||
      !CaseError(c, instance).empty()) {
    return;
  }
  const std::vector<OracleResult> results =
      CheckCase(c, instance, &outcome.simulations);
  outcome.oracle_checks += static_cast<std::int64_t>(results.size());
  for (const OracleResult& result : results) {
    if (result.ok) continue;
    if (outcome.failures.size() >= kMaxFailuresPerSeed) return;
    RecordFailure(options, outcome, c, result, instance, kind);
  }
}

SeedOutcome RunSeed(const FuzzOptions& options, std::uint64_t seed) {
  SeedOutcome outcome;
  Rng rng(options.seed_base + seed * 0x9E3779B97F4A7C15ULL);
  const auto capped = [&outcome]() {
    return outcome.failures.size() >= kMaxFailuresPerSeed;
  };
  const auto make_case = [&options, seed](const std::string& policy, int m) {
    FuzzCase c;
    c.policy = policy;
    c.m = m;
    c.seed = seed;
    c.brute = options.cross_check_brute_force;
    return c;
  };
  // Every registry policy on one (instance, m) cell; `opt` > 0 is the
  // generator-certified OPT of a semi-batched instance.
  const auto run_policies = [&](int m, const Instance& instance,
                                const std::string& kind, Time opt) {
    for (const PolicySpec& spec : AllPolicies()) {
      FuzzCase c = make_case(spec.name, m);
      c.known_opt = opt;
      c.certified_opt = opt;
      c.job_faults = options.job_faults;
      RunCase(options, outcome, c, instance, kind);
    }
  };

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
  general.set_name("fuzz-general-seed" + std::to_string(seed));

  for (int m : options.machine_sizes) {
    if (capped()) return outcome;
    RunCase(options, outcome, make_case(kLowerBoundsPolicy, m), general,
            "gen");
    if (options.opt_certificates) {
      RunCase(options, outcome, make_case(kOptCertificatePolicy, m), general,
              "gen");
    }
    run_policies(m, general, "gen", /*opt=*/0);
  }

  // ---- instance 2: certified semi-batched (exact OPT known) ----
  for (int m : options.machine_sizes) {
    if (capped()) return outcome;
    // The pipelined generator needs m even; Algorithm A needs alpha | m.
    if (m % kAlgAAlpha != 0 || m < 2) continue;
    const Time delta = 1 + static_cast<Time>(rng.next_below(3));
    const int batches = 2 + static_cast<int>(rng.next_below(3));
    CertifiedInstance certified =
        MakePipelinedSemiBatchedInstance(m, delta, batches, rng);
    certified.instance.set_name("fuzz-certified-seed" + std::to_string(seed) +
                                "-m" + std::to_string(m));
    // The differential direction: the certificates must stay below the
    // generator-certified exact OPT.
    if (options.opt_certificates) {
      FuzzCase c = make_case(kOptCertificatePolicy, m);
      c.certified_opt = certified.opt;
      RunCase(options, outcome, c, certified.instance, "cert");
    }
    run_policies(m, certified.instance, "cert", certified.opt);
  }

  // ---- single-job structural oracles on the generated trees ----
  const JobId structural_jobs = std::min<JobId>(2, general.job_count());
  for (JobId j = 0; j < structural_jobs; ++j) {
    Instance single;
    single.add_job(Job(Dag(general.job(j).dag()), 0));
    single.set_name("fuzz-structural-seed" + std::to_string(seed) + "-job" +
                    std::to_string(j));
    for (int m : options.machine_sizes) {
      if (capped()) return outcome;
      FuzzCase c = make_case(kStructuralPolicy, m);
      c.alpha = options.alpha;
      RunCase(options, outcome, c, single, "tree");
    }
  }
  return outcome;
}

}  // namespace

std::string ReproFileName(std::uint64_t seed, int m,
                          const std::string& policy, OracleId oracle,
                          const std::string& kind, std::size_t ordinal) {
  std::ostringstream name;
  name << "repro_seed" << seed << "_m" << m << '_'
       << SanitizeForFilename(policy) << '_'
       << SanitizeForFilename(ToString(oracle)) << '_' << kind << '_'
       << ordinal << ".inst";
  return name.str();
}

std::string FuzzReport::summary() const {
  std::ostringstream out;
  out << "otsched_fuzz: " << simulations << " simulations, " << oracle_checks
      << " oracle checks, " << shrink_evals << " shrink evaluations, "
      << failures.size() << " invariant violation"
      << (failures.size() == 1 ? "" : "s") << "\n";
  for (const FuzzFailure& failure : failures) {
    out << "  ";
    if (failure.oracle.has_value()) {
      out << '[' << ToString(*failure.oracle) << "] ";
    }
    out << "policy=" << failure.policy
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

  const std::size_t seeds = static_cast<std::size_t>(options.seeds);
  const BatchRunner runner(
      options.workers == 0 ? 0 : std::min(options.workers, seeds));
  std::vector<SeedOutcome> outcomes =
      runner.Map<SeedOutcome>(seeds, [&](std::size_t i) {
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

FuzzReport ReplayRepro(const std::string& repro_text) {
  FuzzCase c;
  std::string error = ParseCaseHeaders(repro_text, &c);
  std::optional<Instance> instance;
  if (error.empty()) instance = TryInstanceFromText(repro_text, &error);
  if (error.empty()) error = CaseError(c, *instance);

  FuzzReport report;
  const auto report_failure = [&](const std::string& policy,
                                  std::optional<OracleId> oracle,
                                  const std::string& detail) {
    report.failures.push_back({policy, c.m, c.seed, oracle, detail,
                               repro_text, /*repro_path=*/""});
  };
  // Repro files are hand-editable; a broken one is a reported failure,
  // not a contract violation.
  if (!error.empty()) {
    report_failure("<malformed-repro>", std::nullopt, error);
    return report;
  }
  for (const OracleResult& result :
       CheckCase(c, *instance, &report.simulations)) {
    ++report.oracle_checks;
    if (!result.ok) report_failure(c.policy, result.id, result.detail);
  }
  return report;
}

}  // namespace otsched
