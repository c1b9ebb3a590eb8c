// The single policy-construction API and the single precondition gate.
//
// Every driver — the CLI, the daemon, the benches, the differential fuzz
// harness — builds schedulers through this registry, so "the set of
// policies" is defined in exactly one place: a new scheduler registers
// itself once and inherits the CLI surface, the policy-zoo benches, and
// the full oracle battery of the fuzz harness.  It is also the one module
// that knows what a policy needs of its input: Algorithm A (Section 5)
// runs only out-forest jobs on m processors with alpha | m, its
// semi-batched form also needs an even known OPT whose half-grid holds
// every release, and it aborts on anything else.  Drivers ask PolicyError
// first and turn its one-line reason into a diagnostic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "job/instance.h"
#include "sim/engine.h"

namespace otsched {

/// Competitive-ratio ceilings proved in the paper, enforced by the ratio
/// oracle.  Theorem 5.6: semi-batched Algorithm A with known OPT;
/// Theorem 5.7: general Algorithm A via doubling.
inline constexpr double kTheorem56Ceiling = 129.0;
inline constexpr double kTheorem57Ceiling = 1548.0;

struct PolicySpec {
  /// Stable registry name (matches Scheduler::name() where possible).
  /// The ONLY accepted spelling.
  std::string name;

  /// One-line summary for `otsched list-policies`.
  std::string description;

  /// Builds a fresh scheduler: `seed` feeds randomized tie-breaking, and
  /// `known_opt` is a `needs_known_opt` policy's assumed optimum (<= 0
  /// falls back to 2).  A scheduler built for a cell PolicyError refuses
  /// aborts.
  std::unique_ptr<Scheduler> make(std::uint64_t seed,
                                  Time known_opt = 0) const;
  /// make()'s body, handed a positive known-opt.
  std::function<std::unique_ptr<Scheduler>(std::uint64_t, Time)> factory;

  /// Algorithm A's alpha (kAlgAAlpha), 0 for the other policies: nonzero
  /// means every job must be an out-forest and alpha must divide m.
  int alpha = 0;

  /// Plans with a known OPT (Theorem 5.6): it must be even, and every
  /// release a multiple of OPT / 2.
  bool needs_known_opt = false;

  /// Theorem ceiling on max_flow / OPT enforced by the ratio oracle
  /// (0 = no proven bound; only feasibility is checked).
  double ratio_ceiling = 0.0;
};

/// Every policy in src/sched plus the Section 5 algorithms in src/core.
const std::vector<PolicySpec>& AllPolicies();

/// Looks up a spec by registry name; nullptr if unknown.
const PolicySpec* FindPolicy(std::string_view name);

/// Builds a scheduler by registry name.  Returns nullptr for unknown
/// names so CLIs can print their own diagnostic.  `known_opt` as in
/// PolicySpec::make.
std::unique_ptr<Scheduler> MakePolicy(std::string_view name,
                                      std::uint64_t seed = 0,
                                      Time known_opt = 0);

/// The precondition gate: "" when `spec` can run on m processors with the
/// assumed optimum `known_opt` (as in make), else a one-line reason.
std::string PolicyError(const PolicySpec& spec, int m, Time known_opt = 0);

/// The per-job form, for each job `dag` released at `release`.
std::string PolicyJobError(const PolicySpec& spec, const Dag& dag,
                           Time release, Time known_opt = 0);

/// The instance form: PolicyError, then PolicyJobError job by job.
std::string PolicyError(const PolicySpec& spec, const Instance& instance,
                        int m, Time known_opt = 0);

}  // namespace otsched
