#include "opt/flow_network.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/assert.h"

namespace otsched {

bool FlowRelaxationFeasible(const Instance& instance, int m, Time flow_bound,
                            const BudgetTrace* budget,
                            std::vector<DualInterval>* hall_witness) {
  OTSCHED_CHECK(m >= 1, "m must be >= 1, got " << m);
  if (hall_witness != nullptr) hall_witness->clear();
  if (instance.empty()) return true;

  std::vector<SlotWindow> windows =
      ComputeSubjobWindows(instance, flow_bound);
  for (const SlotWindow& w : windows) {
    // Below the longest chain through some subjob: infeasible with no
    // slot-set witness needed (Certificate::verify's empty-window rule).
    if (w.earliest > w.latest) return false;
  }
  std::sort(windows.begin(), windows.end(),
            [](const SlotWindow& x, const SlotWindow& y) {
              return x.earliest < y.earliest;
            });

  // Pending deadlines (window `latest`), smallest first.  A busy run is
  // a maximal stretch of slots that all end with a pending deadline; it
  // starts with an empty queue, and within it every slot is full (a slot
  // that pops fewer than its capacity empties the queue and ends the
  // run).  `largest_popped[t - run_start]` is the largest deadline slot
  // t served, which the witness below needs.
  std::priority_queue<Time, std::vector<Time>, std::greater<>> deadlines;
  std::vector<Time> largest_popped;
  Time run_start = 0;
  std::size_t next = 0;
  for (Time t = 0; next < windows.size() || !deadlines.empty(); ++t) {
    if (deadlines.empty()) {
      t = windows[next].earliest;
      run_start = t;
      largest_popped.clear();
    }
    for (; next < windows.size() && windows[next].earliest == t; ++next) {
      deadlines.push(windows[next].latest);
    }
    const int capacity = budget == nullptr ? m : budget->capacity_at(t, m);
    Time largest = t - 1;  // below every deadline still pending at t
    for (int k = 0; k < capacity && !deadlines.empty(); ++k) {
      largest = deadlines.top();
      deadlines.pop();
    }
    largest_popped.push_back(largest);
    if (deadlines.empty() || deadlines.top() > t) continue;

    // Deadline L = t missed.  Let u be the last slot of the run that
    // served a deadline beyond L (EDF then left only deadlines beyond L
    // pending), or run_start - 1.  Every window served in (u, L] or
    // still pending with deadline <= L opened after u and closes by L,
    // and every slot of (u, L] is full, so T = [u + 1, L] holds more
    // windows than capacity: a Hall deficiency.
    if (hall_witness != nullptr) {
      Time first = run_start;
      for (Time u = t; u >= run_start; --u) {
        if (largest_popped[static_cast<std::size_t>(u - run_start)] > t) {
          first = u + 1;
          break;
        }
      }
      hall_witness->push_back({first, t, 1});
    }
    return false;
  }
  return true;
}

Certificate MaxFlowCertificate(const Instance& instance, int m,
                               const BudgetTrace* budget) {
  OTSCHED_CHECK(m >= 1, "m must be >= 1, got " << m);
  Certificate cert;
  cert.m = m;
  if (instance.empty()) {
    cert.value = 0;
    cert.method = "trivial";
    return cert;
  }
  cert.method = "max-flow";

  // F = 0 is always infeasible for a nonempty instance (every window
  // [r + depth, r - height + 1] is empty), so the invariant below is
  // lo infeasible / hi feasible from the start.
  Time lo = 0;
  Time hi = instance.max_span() +
            (instance.max_release() - instance.min_release()) +
            instance.total_work() +
            (budget == nullptr ? 0 : budget->length()) + 1;
  for (int doubling = 0; !FlowRelaxationFeasible(instance, m, hi, budget);
       ++doubling) {
    OTSCHED_CHECK(doubling < 16, "no feasible flow bound below " << hi);
    hi *= 2;
  }
  while (hi - lo > 1) {
    const Time mid = lo + (hi - lo) / 2;
    (FlowRelaxationFeasible(instance, m, mid, budget) ? hi : lo) = mid;
  }
  cert.value = hi;

  const bool below_feasible = FlowRelaxationFeasible(
      instance, m, cert.value - 1, budget, &cert.witness);
  OTSCHED_CHECK(!below_feasible, "binary search lost the infeasible side");
  std::string why;
  OTSCHED_CHECK(cert.verify(instance, budget, &why),
                "max-flow certificate failed self-verification: " << why);
  return cert;
}

}  // namespace otsched
