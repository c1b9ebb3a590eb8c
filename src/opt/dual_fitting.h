// Machine-verifiable OPT lower-bound certificates via dual fitting.
//
// A certificate claims OPT[I, m] >= value and carries a witness that a
// schedule with maximum flow value - 1 cannot exist.  The witness is a
// dual-feasible weight assignment in the style of the dual-fitting
// analyses of Angelopoulos–Lucarelli–Thang (arXiv:1502.03946): a
// nonnegative weight y_t on each slot t, nonzero on finitely many
// intervals.  Writing F = value - 1 and giving each subjob v of a job
// released at r_j the slot window
//
//   window(v) = [ r_j + depth(v),  r_j + F - height(v) + 1 ]
//
// (v cannot run before its longest ancestor chain completes, and must
// leave room for its longest descendant chain before the deadline
// r_j + F), any flow-F schedule places every subjob in its window while
// respecting the per-slot capacity c_t (m, or the BudgetTrace value on a
// faulted machine).  Counting weight on both sides of such a placement:
//
//   sum_v min_{t in window(v)} y_t  <=  sum_t c_t * y_t.
//
// A witness with the INEQUALITY REVERSED therefore proves no flow-F
// schedule exists, i.e. OPT >= F + 1 = value.  Certificate::verify()
// re-derives the windows from nothing but the instance, m, and the
// optional trace, and checks that reversed inequality — so verification
// never trusts the solver that produced the certificate.
//
// Two special forms avoid degenerate witnesses:
//   * value <= 1 with a nonempty instance needs no witness (every job
//     needs at least one slot),
//   * an empty window at F certifies on its own (F is below some
//     longest chain), matching the span bound with an empty witness.
//
// The 0/1-weight case is exactly a Hall-condition deficiency witness: a
// set T of slots whose contained windows demand more units than T can
// supply.  opt/flow_network reads one such interval off the first
// deadline its earliest-deadline-first sweep misses; DualFitCertificate
// below takes one from the release-window sweep of opt/lower_bounds run
// with per-slot capacities, generalizing its closed-form bounds to a
// faulted machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "job/instance.h"
#include "sim/faults.h"

namespace otsched {

/// The [earliest, latest] slot window of one subjob at flow bound F (see
/// the file comment); earliest > latest means the window is empty, i.e.
/// F is below the longest chain through the subjob.
struct SlotWindow {
  Time earliest = 0;
  Time latest = 0;
};

/// Windows of every subjob (job-major, node-id order within each job) at
/// flow bound F — the shared vocabulary of the dual checker and the
/// flow-network relaxation in opt/flow_network.
std::vector<SlotWindow> ComputeSubjobWindows(const Instance& instance,
                                             Time flow_bound);

/// One weighted slot interval of a dual witness: y_t += weight for every
/// t in [first, last].  Intervals must be sorted and non-overlapping.
struct DualInterval {
  Time first = 0;
  Time last = 0;
  std::int64_t weight = 1;
};

/// A self-verifying lower bound: OPT[instance, m] >= value, on a machine
/// degraded by `budget` (per-slot capacities; nullptr = always m).
struct Certificate {
  Time value = 0;
  int m = 1;
  /// Producer tag ("max-flow", "dual-fit", "trivial"); informational.
  std::string method = "trivial";
  /// Dual weights proving that flow value - 1 is infeasible.  May be
  /// empty for value <= 1 or when some window is already empty at
  /// value - 1 (the span case).
  std::vector<DualInterval> witness;

  /// Re-derives the subjob windows at F = value - 1 from the instance
  /// and checks the dual inequality above.  Pure: depends only on the
  /// arguments and the fields of this certificate.  When the check
  /// fails and `why` is non-null, a diagnostic is written to it.
  bool verify(const Instance& instance, const BudgetTrace* budget = nullptr,
              std::string* why = nullptr) const;
};

/// Builds a certificate from the strongest 0/1 dual witness over the
/// window family T(a, b, d, B) = [a + d + 1, b + B - 1]: for release
/// times a <= b and depth d, the subjobs deeper than d of jobs released
/// in [a, b] all have windows inside T, so whenever their count exceeds
/// the capacity sum of T the bound B is certified.  The value is
/// max(1, max span, SweepReleaseWindows(instance, m, budget).value) and
/// the witness that sweep's winning interval (none when the span binds).
/// With full capacity this equals ComputeLowerBounds(...).best() of
/// opt/lower_bounds exactly; with a BudgetTrace the capacity sums shrink
/// and the bound can only strengthen.  The result always passes
/// verify().
Certificate DualFitCertificate(const Instance& instance, int m,
                               const BudgetTrace* budget = nullptr);

}  // namespace otsched
