// The single policy-construction API.
//
// Every driver — the CLI, the benches, the differential fuzz harness —
// builds schedulers through this registry, so "the set of policies" is
// defined in exactly one place: a new scheduler registers itself once and
// inherits the CLI surface, the policy-zoo benches, and the full oracle
// battery of the fuzz harness.  Specs also carry the preconditions
// (out-forests, alpha | m, semi-batched certification) and theorem
// ceilings a driver needs to run a policy safely.
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

  /// Builds a fresh scheduler; `seed` feeds randomized tie-breaking so the
  /// fuzz harness explores different executions per fuzz seed.
  std::function<std::unique_ptr<Scheduler>(std::uint64_t seed)> make;

  /// Requires every job DAG to be an out-forest (Section 5 algorithms).
  bool needs_out_forests = false;

  /// Requires alpha (= 4) to divide m (the AlgAPlanner precondition).
  bool needs_alpha_divides_m = false;

  /// Only runs on certified semi-batched instances (releases multiples of
  /// known OPT / 2); the harness passes the certified OPT via
  /// `make_semi_batched` instead of `make`.
  bool needs_semi_batched = false;

  /// For semi-batched policies: factory taking the certified OPT.
  std::function<std::unique_ptr<Scheduler>(Time known_opt)>
      make_semi_batched;

  /// Theorem ceiling on max_flow / OPT enforced by the ratio oracle
  /// (0 = no proven bound; only feasibility is checked).
  double ratio_ceiling = 0.0;
};

/// Every policy in src/sched plus the Section 5 algorithms in src/core.
const std::vector<PolicySpec>& AllPolicies();

/// Looks up a spec by registry name; nullptr if unknown.
const PolicySpec* FindPolicy(std::string_view name);

/// Builds a scheduler by registry name.  Returns nullptr for unknown
/// names so CLIs can print their own diagnostic.  For semi-batched
/// policies `known_opt` is the certified optimum (<= 0 falls back to the
/// CLI default of 2; drivers with a real certificate must pass it).
std::unique_ptr<Scheduler> MakePolicy(std::string_view name,
                                      std::uint64_t seed = 0,
                                      Time known_opt = 0);

/// Registry names in registration order (the order AllPolicies returns).
std::vector<std::string> ListPolicyNames();

/// True when `spec` can run on (instance properties, m).
bool PolicyApplies(const PolicySpec& spec, bool all_out_forests,
                   bool semi_batched_certified, int m);

/// "" unless `spec` is semi-batched and cannot run `instance` with the
/// assumed optimum `known_opt` (<= 0 takes MakePolicy's fallback), else
/// why: Algorithm A needs an even known-opt and every release on its
/// known-opt / 2 grid, and aborts otherwise.  Drivers check it before
/// MakePolicy.
std::string SemiBatchedError(const PolicySpec& spec,
                             const Instance& instance, Time known_opt);

}  // namespace otsched
