#include "opt/lower_bounds.h"

#include <algorithm>
#include <functional>

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

LowerBounds ComputeLowerBounds(const Instance& instance, int m) {
  OTSCHED_CHECK(m >= 1, "lower bounds need a machine: m >= 1, got " << m);
  LowerBounds bounds;
  for (const Job& job : instance.jobs()) {
    bounds.span_bound = std::max<Time>(bounds.span_bound, job.span());
    bounds.work_bound =
        std::max<Time>(bounds.work_bound, (job.work() + m - 1) / m);
    bounds.depth_profile_bound =
        std::max(bounds.depth_profile_bound, DepthProfileBound(job, m));
  }

  // The interval bound is the d = 0 row of the depth x interval bound.
  ForEachReleaseWindow(
      instance, [&](Time first, Time last,
                    const std::vector<std::int64_t>& profile) {
        const Time width = last - first;
        bounds.interval_bound = std::max(bounds.interval_bound,
                                         (profile[0] + m - 1) / m - width);
        for (std::size_t d = 0; d < profile.size() && profile[d] > 0; ++d) {
          const Time bound =
              static_cast<Time>(d) + (profile[d] + m - 1) / m - width;
          bounds.depth_interval_bound =
              std::max(bounds.depth_interval_bound, bound);
        }
      });
  return bounds;
}

Time MaxFlowLowerBound(const Instance& instance, int m) {
  return ComputeLowerBounds(instance, m).best();
}

}  // namespace otsched
