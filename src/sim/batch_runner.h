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
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/thread_pool.h"
#include "sim/engine.h"
#include "sim/observers.h"

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

  /// One instrumented cell: the simulation result plus the metrics its
  /// MetricsObserver collected.  Merge the registries (index order) for
  /// batch aggregates.
  struct InstrumentedRun {
    SimResult result;
    MetricsRegistry metrics;
  };

  /// A simulation per cell — one policy run on one shared immutable
  /// instance, `make_scheduler(i)` building a fresh policy inside the
  /// cell — with a MetricsObserver attached to every cell.  Cells default
  /// to flow-only recording (sweeps aggregate flows and stats, never
  /// individual schedules).  Each cell gets a private registry, so
  /// instrumentation adds no cross-worker coordination; pass
  /// record_pick_times = false in `observer_options` when the aggregate
  /// must be deterministic.  The observer slot of `context` must be
  /// empty — each cell installs its own MetricsObserver over the shared
  /// options/capacity.
  template <typename MakeScheduler>
  std::vector<InstrumentedRun> RunInstrumentedSimulations(
      std::span<const std::pair<const Instance*, int>> cells,
      MakeScheduler&& make_scheduler,
      const RunContext& context = FlowOnlyOptions(),
      MetricsObserver::Options observer_options = MetricsObserver::Options())
      const {
    OTSCHED_CHECK(context.observer == nullptr,
                  "instrumented batch cells install their own per-cell "
                  "MetricsObserver; the batch RunContext must not carry one");
    return Map<InstrumentedRun>(cells.size(), [&](std::size_t i) {
      const auto& [instance, m] = cells[i];
      auto scheduler = make_scheduler(i);
      InstrumentedRun run;
      MetricsObserver observer(run.metrics, observer_options);
      RunContext cell_context = context;
      cell_context.observer = &observer;
      run.result = Simulate(*instance, m, *scheduler, cell_context);
      return run;
    });
  }

 private:
  std::size_t workers_;
};

}  // namespace otsched
