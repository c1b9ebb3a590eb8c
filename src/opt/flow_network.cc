#include "opt/flow_network.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "common/assert.h"

namespace otsched {
namespace {

/// The one EDF sweep: each slot serves up to its capacity of the pending
/// windows with the smallest `latest`.  Returns the maximum lateness, the
/// largest (serving slot - latest), and fills a non-null `hall_witness`
/// at the first missed deadline.  The serving order does not depend on F,
/// so the lateness at F is the lateness at 0 minus F.
Time EdfLateness(std::vector<SlotWindow> windows, int m,
                 const BudgetTrace* budget,
                 std::vector<DualInterval>* hall_witness) {
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
  Time lateness = std::numeric_limits<Time>::min();
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
      lateness = std::max(lateness, t - largest);
    }
    largest_popped.push_back(largest);
    if (hall_witness == nullptr || !hall_witness->empty() ||
        deadlines.empty() || deadlines.top() > t) {
      continue;
    }

    // Deadline L = t missed first.  Let u be the last slot of the run
    // that served a deadline beyond L (EDF then left only deadlines
    // beyond L pending), or run_start - 1.  Every window served in
    // (u, L] or still pending with deadline <= L opened after u and
    // closes by L, and every slot of (u, L] is full, so T = [u + 1, L]
    // holds more windows than capacity: a Hall deficiency.
    Time first = run_start;
    for (Time u = t; u >= run_start; --u) {
      if (largest_popped[static_cast<std::size_t>(u - run_start)] > t) {
        first = u + 1;
        break;
      }
    }
    hall_witness->push_back({first, t, 1});
  }
  return lateness;
}

}  // namespace

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
  return EdfLateness(std::move(windows), m, budget, hall_witness) <= 0;
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

  // The relaxation is feasible at F iff the lateness at F, the lateness
  // at 0 minus F, is <= 0.  Every window is served at or after its
  // `earliest`, so at F* every window is nonempty as well.
  cert.value = EdfLateness(ComputeSubjobWindows(instance, 0), m, budget,
                           nullptr);
  FlowRelaxationFeasible(instance, m, cert.value - 1, budget, &cert.witness);
  std::string why;
  OTSCHED_CHECK(cert.verify(instance, budget, &why),
                "max-flow certificate failed self-verification: " << why);
  return cert;
}

}  // namespace otsched
