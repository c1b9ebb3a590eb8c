#include "opt/dual_fitting.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "dag/metrics.h"
#include "opt/lower_bounds.h"

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
  // root-to-leaf chain has an empty window.  Any stronger value comes
  // from the release-window sweep's single interval.
  const Time span = std::max<Time>(1, instance.max_span());
  const ReleaseWindowBound windows = SweepReleaseWindows(instance, m, budget);
  cert.value = std::max(span, windows.value);
  if (windows.value > span) {
    cert.witness = {{windows.first, windows.last, 1}};
  }
  std::string why;
  OTSCHED_CHECK(cert.verify(instance, budget, &why),
                "dual-fit certificate failed self-verification: " << why);
  return cert;
}

}  // namespace otsched
