// Differential fuzz harness: every registered policy, on shared seeded
// random instances, cross-validated through the invariant oracles.
//
// Per fuzz seed the harness builds
//   * a general online mix (Poisson arrivals of random out-trees), and
//   * a certified semi-batched instance (known exact OPT by construction)
// and for every (instance, m, policy) triple checks
//   * the Section 3 feasibility axioms of the produced schedule,
//   * the flow floor: no policy may beat a certified OPT or any
//     opt/lower_bounds certificate (a "too good" flow means the bound or
//     the flow accounting is broken — the differential part),
//   * the Theorem 5.6 / 5.7 ratio ceilings for Algorithm A,
// plus the single-job structural oracles (Corollary 5.4, Lemma 5.2,
// Lemma 5.5) on the generated trees themselves, and per (instance, m)
// cell the certified lower-bound sandwich (CheckOptLowerBoundOracle:
// heuristic bounds <= dual-fit certificate <= max-flow certificate <=
// brute-force OPT, every certificate self-verifying) — on hash-selected
// cells additionally under a deterministic fluctuating BudgetTrace, and
// on certified instances against the generator's exact OPT.
//
// Each of those checks is one fuzz case — a policy or pseudo-policy, m,
// seed and the settings it ran with — checked by one function that the
// grid, the shrinker and ReplayRepro all call.  The seed grid is drained
// in parallel over common/thread_pool.  On failure the harness greedily
// shrinks the instance — dropping whole jobs, then subtrees — while the
// violation persists, and serializes a minimal deterministic repro via
// job/serialize whose `# key: value` headers carry the whole case.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "job/instance.h"

namespace otsched {

struct FuzzOptions {
  int seeds = 64;
  std::uint64_t seed_base = 1;
  /// Maximum jobs per generated instance (at least 2 are generated).
  int max_jobs = 10;
  /// Maximum subjobs per generated job.
  NodeId max_job_nodes = 36;
  std::vector<int> machine_sizes = {1, 2, 3, 4, 8};
  int alpha = 4;
  /// Cross-check Corollary 5.4 and the lower bounds against exhaustive
  /// search on instances small enough for opt/brute_force.
  bool cross_check_brute_force = true;
  /// Run the certified lower-bound oracle (max-flow + dual-fitting
  /// certificates, CheckOptLowerBoundOracle) on every (instance, m) cell.
  bool opt_certificates = true;
  /// Run the job-fault dimension (sim/job_faults.h) on every applicable
  /// case: an armed-but-silent rerun held to bit-identity with the plain
  /// run (kNoLostWorkWhenHealthy), plus an actively crashing rerun whose
  /// streamed trace must pass Section 3 feasibility over committed work
  /// and reconcile executes == total work + wasted.  Both legs derive
  /// their specs purely from (seed, m, policy); a repro of such a case
  /// carries `# job-faults: 1`, which makes `--replay` rerun them.
  bool job_faults = false;
  /// Thread-pool width; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Directory for shrunk repro files; empty = keep repros in memory only.
  std::string repro_dir;
  /// Budget of candidate evaluations per failure during shrinking.
  int max_shrink_evals = 160;
};

struct FuzzFailure {
  /// Registry policy name, or a pseudo-policy for policy-independent
  /// checks ("<lpf-structural>", "<lower-bounds>", "<opt-certificate>"),
  /// or "<malformed-repro>" for a repro ReplayRepro cannot run.
  std::string policy;
  int m = 0;
  std::uint64_t seed = 0;
  OracleId oracle = OracleId::kFeasibility;
  std::string detail;
  /// The shrunk instance, serialized (with provenance comments).
  std::string instance_text;
  /// Where the repro was written ("" when repro_dir is empty).
  std::string repro_path;
};

struct FuzzReport {
  std::int64_t simulations = 0;
  std::int64_t oracle_checks = 0;
  std::int64_t shrink_evals = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  /// Human-readable multi-line summary.
  std::string summary() const;
};

/// Runs the whole grid.  Deterministic for fixed options (worker count
/// does not affect the outcome, only the wall clock).
FuzzReport RunDifferentialFuzz(const FuzzOptions& options);

/// Re-runs one repro exactly as serialized by the harness and reports any
/// violation that is still present.  The comment headers select the case
/// (`# policy`, `# m`, `# seed`, and when they differ from the defaults
/// `# known-opt`, `# alpha`, `# brute-force: 0`, `# job-faults: 1`), so
/// the file alone decides the verdict, the same on every machine.  A
/// malformed header or instance, or a case no grid would run (m < 1,
/// alpha < 2, an unknown policy or one whose preconditions the instance
/// does not meet), is reported as one "<malformed-repro>" failure.
FuzzReport ReplayRepro(const std::string& repro_text);

// ---- exposed for unit tests ----

/// Returns true when the candidate still exhibits the failure under
/// investigation.
using FailurePredicate = std::function<bool(const Instance&)>;

/// Greedy minimization: repeatedly drop whole jobs, then subtrees, while
/// `still_fails` holds, spending at most `max_evals` candidate
/// evaluations.  Returns the smallest failing instance found.
Instance ShrinkInstance(const Instance& failing,
                        const FailurePredicate& still_fails, int max_evals,
                        std::int64_t* evals_used = nullptr);

/// Removes `root` and all of its descendants, relabelling the survivors
/// densely (id order preserved).  An out-forest stays an out-forest.
Dag RemoveSubtree(const Dag& dag, NodeId root);

}  // namespace otsched
