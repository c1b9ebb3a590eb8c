#include "opt/lower_bounds.h"

#include <algorithm>
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

namespace {

/// C(t) = m * t - (what `budget` removes from the slots before t), so
/// the slots [s, t - 1] supply C(t) - C(s).  C is nondecreasing with one
/// step per pin; with no pins both queries are closed forms.
class CapacityPrefix {
 public:
  CapacityPrefix(int m, const BudgetTrace* budget) : m_(m) {
    std::int64_t removed = 0;  // from the slots up to each pin
    for (std::size_t i = 0; budget != nullptr && i < budget->entry_count();
         ++i) {
      const Time slot = budget->entry(i).first;
      removed += m - budget->capacity_at(slot, m);
      pins_.emplace_back(slot, removed);
    }
  }

  __int128 at(Time t) const {
    return Linear(t) - Removed([t](const Pin& pin) { return pin.first < t; });
  }

  /// The largest y with C(y) < x, for x >= 1.  Past the last pin whose
  /// next slot still has C < x, C(y) = m * y - removed; it stays below x
  /// at most up to the next pin's slot, so the division needs no cap.
  __int128 last_below(__int128 x) const {
    return (x - 1 + Removed([&](const Pin& pin) {
              return Linear(pin.first) + m_ - pin.second < x;
            })) / m_;
  }

 private:
  using Pin = std::pair<Time, std::int64_t>;

  /// What the leading pins that satisfy `before` remove.
  template <typename Before>
  std::int64_t Removed(Before before) const {
    const auto next = std::partition_point(pins_.begin(), pins_.end(), before);
    return next == pins_.begin() ? 0 : std::prev(next)->second;
  }
  __int128 Linear(Time t) const { return static_cast<__int128>(m_) * t; }

  int m_;
  std::vector<Pin> pins_;
};

}  // namespace

ReleaseWindowBound SweepReleaseWindows(const Instance& instance, int m,
                                       const BudgetTrace* budget) {
  OTSCHED_CHECK(m >= 1, "lower bounds need a machine: m >= 1, got " << m);
  std::vector<const Job*> by_release;
  by_release.reserve(static_cast<std::size_t>(instance.job_count()));
  for (const Job& job : instance.jobs()) by_release.push_back(&job);
  std::sort(by_release.begin(), by_release.end(),
            [](const Job* x, const Job* y) {
              return x->release() < y->release();
            });

  // One sweep per depth row d over the release groups (see the header).
  // prefix[d] = P, the W(d) released before the current group; key[d] is
  // the largest C(r_a + d + 1) - P_a over the window starts so far, and
  // start[d] the first r_a reaching it.  Keys start at -2^126, below any
  // real one (|C(t)| < 2^31 * 2^63).  Row d only starts and ends windows at groups with work deeper
  // than d: a window whose first or last group adds nothing to W(d) is
  // beaten by the narrower window without that group, and no window
  // with W(d) = 0 is scored at all.
  const CapacityPrefix capacity(m, budget);
  const auto rows = static_cast<std::size_t>(instance.max_span());
  std::vector<std::int64_t> prefix(rows, 0);
  std::vector<__int128> key(rows, -(static_cast<__int128>(1) << 126));
  std::vector<Time> start(rows, 0);
  ReleaseWindowBound bound;
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
      const __int128 candidate =
          capacity.at(release + static_cast<Time>(d) + 1) - prefix[d];
      if (candidate > key[d]) {
        key[d] = candidate;
        start[d] = release;
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
      const auto b = static_cast<Time>(
          capacity.last_below(prefix[d] + key[d]) - release);
      if (d == 0) bound.interval = std::max(bound.interval, b);
      if (b > bound.value) {
        bound.value = b;
        bound.first = start[d] + static_cast<Time>(d) + 1;
        bound.last = release + b - 1;
      }
    }
  }
  return bound;
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
  const ReleaseWindowBound windows = SweepReleaseWindows(instance, m);
  bounds.interval_bound = windows.interval;
  bounds.depth_interval_bound = windows.value;
  return bounds;
}

Time MaxFlowLowerBound(const Instance& instance, int m) {
  return ComputeLowerBounds(instance, m).best();
}

}  // namespace otsched
