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
// The interval and depth x interval bounds come from one prefix sweep
// per depth (ComputeLowerBounds); the dual-fit certificate of
// opt/dual_fitting reaches the same value by enumerating every release
// window, an independent cross-check.
#pragma once

#include <cstdint>

#include "job/instance.h"

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

/// Computes all bounds in O(n log n + sum of spans) for n jobs, with
/// O(1) state per depth row and nothing sized by m.
///
/// The per-job components take one pass over the jobs.  The interval and
/// depth x interval bounds sweep the release groups in order, once per
/// depth d (the interval bound is the d = 0 row).  Writing the W(d)
/// released before group g as P_g = q_g * m + s_g with 0 <= s_g < m,
///   ceil((P_{b+1} - P_a) / m) = q_{b+1} - q_a + [s_{b+1} > s_a],
/// so the window [r_a, r_b] gives
///   d + q_{b+1} - r_b + (key_a + [s_a < s_{b+1}]),  key_a = r_a - q_a.
/// The indicator is 0 or 1 and keys are integers, so the best start for
/// b is worth top + [low < s_{b+1}], where top is the largest key so far
/// and low the smallest residue among the starts reaching it.
LowerBounds ComputeLowerBounds(const Instance& instance, int m);

/// Shorthand for ComputeLowerBounds(...).best().
Time MaxFlowLowerBound(const Instance& instance, int m);

/// Lemma 5.1 bound for a single job: max_d (d + ceil(W(d)/m)) over
/// d in [0, span].  For an out-forest released alone this equals OPT
/// exactly (Corollary 5.4).
Time DepthProfileBound(const Job& job, int m);

}  // namespace otsched
