#include "opt/dual_fitting.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/assert.h"
#include "dag/metrics.h"

namespace otsched {

std::vector<SlotWindow> ComputeSubjobWindows(const Instance& instance,
                                             Time flow_bound) {
  std::vector<SlotWindow> windows;
  windows.reserve(static_cast<std::size_t>(instance.total_work()));
  for (const Job& job : instance.jobs()) {
    const DagMetrics& metrics = job.metrics();
    const Time release = job.release();
    for (NodeId v = 0; v < job.dag().node_count(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      windows.push_back(
          {release + metrics.depth[i],
           release + flow_bound - metrics.height[i] + 1});
    }
  }
  return windows;
}

namespace {

/// min_{t in [earliest, latest]} y_t for sorted, disjoint weighted
/// intervals; 0 as soon as any slot of the window is uncovered.
std::int64_t MinWeightOver(const std::vector<DualInterval>& witness,
                           Time earliest, Time latest) {
  auto it = std::lower_bound(
      witness.begin(), witness.end(), earliest,
      [](const DualInterval& d, Time t) { return d.last < t; });
  if (it == witness.end() || it->first > earliest) return 0;
  std::int64_t min_weight = it->weight;
  Time covered = it->last;
  while (covered < latest) {
    ++it;
    if (it == witness.end() || it->first != covered + 1) return 0;
    min_weight = std::min(min_weight, it->weight);
    covered = it->last;
  }
  return min_weight;
}

bool Fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
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

bool Certificate::verify(const Instance& instance, const BudgetTrace* budget,
                         std::string* why) const {
  if (m < 1) return Fail(why, "certificate m must be >= 1");
  if (value < 0) return Fail(why, "negative certificate value");
  if (value == 0) return true;  // OPT >= 0 holds vacuously
  if (instance.empty()) {
    return Fail(why, "positive bound claimed for the empty instance");
  }
  if (value == 1) return true;  // every job needs at least one slot

  const Time flow_bound = value - 1;
  const std::vector<SlotWindow> windows =
      ComputeSubjobWindows(instance, flow_bound);
  for (const SlotWindow& w : windows) {
    // An empty window means flow_bound is below the longest chain
    // through this subjob, so OPT > flow_bound without any witness.
    if (w.earliest > w.latest) return true;
  }

  if (witness.empty()) {
    return Fail(why, "no witness and every window at flow bound " +
                         std::to_string(flow_bound) + " is nonempty");
  }
  for (std::size_t i = 0; i < witness.size(); ++i) {
    const DualInterval& d = witness[i];
    if (d.first > d.last) return Fail(why, "empty witness interval");
    if (d.weight < 1) return Fail(why, "witness weight must be >= 1");
    if (i > 0 && d.first <= witness[i - 1].last) {
      return Fail(why, "witness intervals unsorted or overlapping");
    }
  }

  // Wide accumulators: a corrupted witness may carry huge weights, and
  // rejecting it must not depend on signed overflow.
  __int128 demand = 0;
  for (const SlotWindow& w : windows) {
    demand += MinWeightOver(witness, w.earliest, w.latest);
  }
  __int128 capacity = 0;
  for (const DualInterval& d : witness) {
    capacity += static_cast<__int128>(d.weight) *
                SlotCapacitySum(budget, d.first, d.last, m);
  }
  if (demand > capacity) return true;

  std::ostringstream message;
  message << "dual witness does not certify flow bound " << flow_bound
          << " infeasible: weighted demand "
          << static_cast<long long>(demand) << " <= weighted capacity "
          << static_cast<long long>(capacity);
  return Fail(why, message.str());
}

Certificate DualFitCertificate(const Instance& instance, int m,
                               const BudgetTrace* budget) {
  OTSCHED_CHECK(m >= 1, "m must be >= 1, got " << m);
  Certificate cert;
  cert.m = m;
  if (instance.empty()) {
    cert.value = 0;
    cert.method = "trivial";
    return cert;
  }
  cert.method = "dual-fit";

  // The span candidate needs no witness: at F = max_span - 1 some
  // root-to-leaf chain has an empty window.
  Time best = std::max<Time>(1, instance.max_span());
  std::vector<DualInterval> best_witness;

  // Enumerate 0/1 witnesses T(a, b, d, B) = [a + d + 1, b + B - 1] over
  // every release window and depth, with exact (possibly faulted)
  // capacity sums.  This enumeration is deliberately independent of the
  // prefix sweep in opt/lower_bounds, which must reach the same value on
  // a healthy machine.  For fixed (a, b, d) the capacity
  // of T grows with B while the demand W stays put, so the best
  // certified B is found by binary search on "capacity < W".
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
      if (lo > best) {
        best = lo;
        best_witness = {{a + d + 1, b + lo - 1, 1}};
      }
    }
  });

  cert.value = best;
  cert.witness = std::move(best_witness);
  std::string why;
  OTSCHED_CHECK(cert.verify(instance, budget, &why),
                "dual-fit certificate failed self-verification: " << why);
  return cert;
}

}  // namespace otsched
