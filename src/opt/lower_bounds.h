// Lower bounds on the optimal maximum flow OPT[I, m].
//
// Competitive ratios reported by the experiment harnesses divide by a
// certified OPT when the generator provides one, and otherwise by the max
// of these lower bounds — so measured ratios are never flattering.
//
//   span bound      F >= P_i for each job (Section 3),
//   work bound      F >= ceil(W_i / m) for each job (Section 3),
//   depth profile   F >= d + ceil(W_i(d) / m) for each job and every depth
//                   d (Lemma 5.1),
//   interval bound  for release times a <= b, all work released in [a, b]
//                   must fit into m * (b - a + F) processor-slots, so
//                   F >= ceil(W[a,b] / m) - (b - a).
//
// The interval and depth x interval bounds come from one sweep per depth
// (SweepReleaseWindows), which opt/dual_fitting reuses with per-slot
// capacities for its certificate.
#pragma once

#include <cstdint>

#include "job/instance.h"
#include "sim/faults.h"

namespace otsched {

/// Names the component that realizes LowerBounds::best(); listed in the
/// documented tie-break priority order, SIMPLEST explanation first.
/// (The general components can never lose a tie the other way: the
/// depth x interval bound provably dominates every other component, so
/// a most-general-first rule would attribute everything to it.)
enum class BoundComponent {
  kSpan,
  kWork,
  kInterval,
  kDepthProfile,
  kDepthInterval,
};

const char* ToString(BoundComponent component);

struct LowerBounds {
  Time span_bound = 0;
  Time work_bound = 0;
  Time depth_profile_bound = 0;  // Lemma 5.1 per job
  Time interval_bound = 0;
  /// Combined depth x interval bound: for release times a <= b and any
  /// depth d, subjobs of depth > d from jobs released in [a, b] cannot
  /// start before their release + d and must finish by b + F, so
  ///   F >= d + ceil( sum_{r_i in [a,b]} W_i(d) / m ) - (b - a).
  /// Strictly generalizes both the interval bound (d = 0) and the
  /// per-job Lemma 5.1 bound (a = b = r_i).
  Time depth_interval_bound = 0;

  Time best() const;

  /// The component achieving best().  Ties break toward the simplest
  /// explanation, in the fixed order span > work > interval >
  /// depth_profile > depth_interval (BoundComponent declaration order)
  /// — pinned by golden tests so reports never silently change
  /// attribution.
  BoundComponent best_component() const;
};

/// The best release-window x depth bound on a machine whose slot t
/// supplies m processors, or budget->capacity_at(t, m).
struct ReleaseWindowBound {
  Time interval = 0;  // best over the d = 0 row (the interval bound)
  Time value = 0;     // best over every row (the depth x interval bound)
  /// The slot interval T = [a + d + 1, b + value - 1] of the first
  /// (b, d, a) attaining `value`, in sweep order.
  Time first = 0;
  Time last = -1;
};

/// For release times a <= b and depth d, the W subjobs deeper than d of
/// the jobs released in [a, b] all run inside T = [a + d + 1, b + B - 1]
/// in any schedule with maximum flow below B, so B is certified when W
/// exceeds T's supply.  With C(t) the supply of the slots before t (m * t
/// when healthy) and P_g(d) the W(d) released before group g, that reads
///   C(b + B) < P_{b+1}(d) + (C(a + d + 1) - P_a(d)),
/// so each row keeps the running maximum of the bracketed key over the
/// starts a, and at group b the best B is y - b for the largest y with
/// C(y) < P_{b+1}(d) + key: a ceiling division when healthy, giving
/// d + ceil(W / m) - (b - a).  O(n log n + sum of spans), times
/// log(pins) under a budget; nothing sized by m, and __int128 keys.
ReleaseWindowBound SweepReleaseWindows(const Instance& instance, int m,
                                       const BudgetTrace* budget = nullptr);

/// Computes all bounds: one pass over the jobs for the per-job
/// components, and SweepReleaseWindows on the healthy machine for the
/// interval (d = 0) and depth x interval bounds.
LowerBounds ComputeLowerBounds(const Instance& instance, int m);

/// Shorthand for ComputeLowerBounds(...).best().
Time MaxFlowLowerBound(const Instance& instance, int m);

/// Lemma 5.1 bound for a single job: max_d (d + ceil(W(d)/m)) over
/// d in [0, span].  For an out-forest released alone this equals OPT
/// exactly (Corollary 5.4).
Time DepthProfileBound(const Job& job, int m);

}  // namespace otsched
