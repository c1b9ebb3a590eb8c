// Deterministic fan-out of simulation tasks across the thread pool.
//
// Every empirical claim in the reproduction — fuzz campaigns, adversary
// sweeps, policy-zoo benches — is a map over an index space of
// independent (instance, policy) simulation cells.  BatchRunner is the
// one place that map is implemented: results land in a vector indexed by
// task id, so the output is identical for any worker count (including 0,
// which runs inline on the caller), and per-cell scheduler state is
// constructed inside the cell so nothing is shared across workers.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/thread_pool.h"
#include "sim/engine.h"

namespace otsched {

/// Fans `count` independent cells across a thread pool and returns their
/// results in index order.  `cell(i)` must be self-contained (construct
/// its own Scheduler; Instances are immutable and safe to share).
///
/// `workers` follows the ThreadPool convention: 0 = hardware concurrency.
/// The result vector is a pure function of `cell`, never of scheduling —
/// required by the determinism contract of every seeded experiment.
class BatchRunner {
 public:
  explicit BatchRunner(std::size_t workers = 0) : workers_(workers) {}

  std::size_t workers() const { return workers_; }

  /// Maps `cell` over [0, count); result[i] == cell(i).  R need not be
  /// default-constructible (Schedule is not).
  template <typename R, typename Cell>
  std::vector<R> Map(std::size_t count, Cell&& cell) const {
    std::vector<std::optional<R>> slots(count);
    ParallelForEachIndex(count, [&](std::size_t i) { slots[i].emplace(cell(i)); },
                         workers_);
    std::vector<R> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      OTSCHED_CHECK(slots[i].has_value(), "batch cell " << i
                                                        << " produced no result");
      out.push_back(std::move(*slots[i]));
    }
    return out;
  }

 private:
  std::size_t workers_;
};

}  // namespace otsched
