#include "opt/lower_bounds.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/assert.h"

namespace otsched {

const char* ToString(BoundComponent component) {
  switch (component) {
    case BoundComponent::kDepthInterval:
      return "depth-interval";
    case BoundComponent::kDepthProfile:
      return "depth-profile";
    case BoundComponent::kInterval:
      return "interval";
    case BoundComponent::kWork:
      return "work";
    case BoundComponent::kSpan:
      return "span";
  }
  return "?";
}

Time LowerBounds::best() const {
  return std::max({span_bound, work_bound, depth_profile_bound,
                   interval_bound, depth_interval_bound});
}

BoundComponent LowerBounds::best_component() const {
  const Time winner = best();
  if (span_bound == winner) return BoundComponent::kSpan;
  if (work_bound == winner) return BoundComponent::kWork;
  if (interval_bound == winner) return BoundComponent::kInterval;
  if (depth_profile_bound == winner) return BoundComponent::kDepthProfile;
  return BoundComponent::kDepthInterval;
}

Time DepthProfileBound(const Job& job, int m) {
  OTSCHED_CHECK(m >= 1, "lower bounds need a machine: m >= 1, got " << m);
  const DagMetrics& metrics = job.metrics();
  Time best = 0;
  for (std::int64_t d = 0; d <= metrics.span; ++d) {
    const std::int64_t w = metrics.w_deeper(d);
    const Time bound = d + (w + m - 1) / m;
    best = std::max(best, bound);
  }
  return best;
}

LowerBounds ComputeLowerBounds(const Instance& instance, int m) {
  OTSCHED_CHECK(m >= 1, "lower bounds need a machine: m >= 1, got " << m);
  LowerBounds bounds;
  std::vector<const Job*> by_release;
  by_release.reserve(static_cast<std::size_t>(instance.job_count()));
  for (const Job& job : instance.jobs()) {
    bounds.span_bound = std::max<Time>(bounds.span_bound, job.span());
    bounds.work_bound =
        std::max<Time>(bounds.work_bound, (job.work() + m - 1) / m);
    bounds.depth_profile_bound =
        std::max(bounds.depth_profile_bound, DepthProfileBound(job, m));
    by_release.push_back(&job);
  }
  std::sort(by_release.begin(), by_release.end(),
            [](const Job* x, const Job* y) {
              return x->release() < y->release();
            });

  // One sweep per depth row d over the release groups (see the header).
  // prefix[d] = P, the W(d) released before the current group; top[d] is
  // the largest key r_a - floor(P_a / m) over the window starts so far,
  // and low[d] the smallest residue P_a mod m among the starts reaching
  // it.  Row d only starts and ends windows at groups with work deeper
  // than d: a window whose first or last group adds nothing to W(d) is
  // beaten by the narrower window without that group, and no window
  // with W(d) = 0 is scored at all.
  const auto rows = static_cast<std::size_t>(instance.max_span());
  std::vector<std::int64_t> prefix(rows, 0);
  std::vector<Time> top(rows, std::numeric_limits<Time>::min());
  std::vector<std::int64_t> low(rows, 0);
  for (std::size_t g = 0; g < by_release.size();) {
    const Time release = by_release[g]->release();
    std::size_t end = g;
    std::size_t group_rows = 0;
    for (; end < by_release.size() && by_release[end]->release() == release;
         ++end) {
      group_rows = std::max(group_rows,
                            static_cast<std::size_t>(by_release[end]->span()));
    }
    for (std::size_t d = 0; d < group_rows; ++d) {
      const Time key = release - prefix[d] / m;
      const std::int64_t residue = prefix[d] % m;
      if (key > top[d]) {
        top[d] = key;
        low[d] = residue;
      } else if (key == top[d]) {
        low[d] = std::min(low[d], residue);
      }
    }
    for (; g < end; ++g) {
      const DagMetrics& metrics = by_release[g]->metrics();
      for (std::size_t d = 0; d < static_cast<std::size_t>(metrics.span);
           ++d) {
        prefix[d] += metrics.deeper_than[d];
      }
    }
    for (std::size_t d = 0; d < group_rows; ++d) {
      const Time bound = static_cast<Time>(d) + prefix[d] / m - release +
                         top[d] + (low[d] < prefix[d] % m ? 1 : 0);
      if (d == 0) {
        bounds.interval_bound = std::max(bounds.interval_bound, bound);
      }
      bounds.depth_interval_bound =
          std::max(bounds.depth_interval_bound, bound);
    }
  }
  return bounds;
}

Time MaxFlowLowerBound(const Instance& instance, int m) {
  return ComputeLowerBounds(instance, m).best();
}

}  // namespace otsched
