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
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "sim/engine.h"
#include "sim/observers.h"

namespace otsched {

/// One failed batch cell, recorded instead of aborting the campaign.
struct CellFailure {
  std::size_t index = 0;
  /// exception.what() of the last attempt, or "<unknown exception>" for
  /// payloads not derived from std::exception.  Empty for pure timeouts.
  std::string what;
  /// Total attempts made (1 = no retry).
  int attempts = 1;
  /// The cell finished but exceeded RunPolicy::cell_timeout_seconds.
  bool timed_out = false;
};

/// Fault handling for MapWithFailures.
struct BatchRunPolicy {
  /// Total attempts per throwing cell (>= 1).  Retries run inline on the
  /// same worker, immediately, so the result vector stays a pure function
  /// of the cells.
  int max_attempts = 1;
  /// Soft per-cell wall-clock deadline, checked AFTER the cell returns
  /// (threads cannot be killed portably, so a wedged cell still wedges
  /// its worker — the deadline makes slow cells visible, it does not
  /// interrupt them).  Timed-out cells KEEP their result and are
  /// additionally recorded as a CellFailure, so output values stay
  /// machine-independent.  0 disables the check.
  double cell_timeout_seconds = 0;
};

/// MapWithFailures outcome: per-cell results (empty optional = the cell
/// threw on every attempt) plus the failures in ascending index order.
template <typename R>
struct BatchOutcome {
  std::vector<std::optional<R>> results;
  std::vector<CellFailure> failures;

  bool all_ok() const { return failures.empty(); }
};

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

  /// Crash-tolerant Map: a throwing cell is retried up to
  /// `policy.max_attempts` times and then recorded as a structured
  /// CellFailure instead of aborting the whole campaign — long fuzz and
  /// sweep runs keep their completed cells.  Failures come back sorted by
  /// cell index (collected per-slot, so the report is deterministic
  /// whenever the cells are).  See BatchRunPolicy for the soft-timeout
  /// semantics.
  template <typename R, typename Cell>
  BatchOutcome<R> MapWithFailures(std::size_t count, Cell&& cell,
                                  BatchRunPolicy policy = {}) const {
    OTSCHED_CHECK(policy.max_attempts >= 1,
                  "BatchRunPolicy.max_attempts must be >= 1, got "
                      << policy.max_attempts);
    BatchOutcome<R> outcome;
    outcome.results.resize(count);
    std::vector<std::optional<CellFailure>> fail_slots(count);
    ParallelForEachIndex(
        count,
        [&](std::size_t i) {
          WallTimer timer;
          for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
            try {
              outcome.results[i].emplace(cell(i));
              break;
            } catch (const std::exception& e) {
              fail_slots[i] =
                  CellFailure{i, e.what(), attempt, /*timed_out=*/false};
            } catch (...) {
              fail_slots[i] = CellFailure{i, "<unknown exception>", attempt,
                                          /*timed_out=*/false};
            }
          }
          if (outcome.results[i].has_value()) {
            if (policy.cell_timeout_seconds > 0 &&
                timer.elapsed_seconds() > policy.cell_timeout_seconds) {
              CellFailure slow;
              slow.index = i;
              slow.attempts =
                  fail_slots[i].has_value() ? fail_slots[i]->attempts + 1 : 1;
              slow.timed_out = true;
              fail_slots[i] = slow;
            } else if (fail_slots[i].has_value()) {
              // A retry succeeded: the cell recovered, drop the record.
              fail_slots[i].reset();
            }
          }
        },
        workers_);
    for (std::size_t i = 0; i < count; ++i) {
      if (fail_slots[i].has_value()) {
        outcome.failures.push_back(*std::move(fail_slots[i]));
      }
    }
    return outcome;
  }

  /// A simulation task: one policy run on one shared immutable instance.
  /// `make_scheduler` runs inside the cell (fresh policy per cell).
  /// Batch cells default to flow-only recording — sweeps aggregate flows
  /// and stats, never individual schedules; pass a context with
  /// RecordMode::kFull to materialize schedules anyway.  `context` is the
  /// one run surface (bare SimOptions convert implicitly; the old
  /// SimOptions overloads were folded away) and must not carry an
  /// observer: cells run concurrently and a single borrowed observer
  /// would see interleaved event streams.
  template <typename MakeScheduler>
  std::vector<SimResult> RunSimulations(
      std::span<const std::pair<const Instance*, int>> cells,
      MakeScheduler&& make_scheduler,
      const RunContext& context = FlowOnlyOptions()) const {
    OTSCHED_CHECK(context.observer == nullptr,
                  "batch cells run concurrently; attach per-cell observers "
                  "inside make_scheduler-style cell code instead of sharing "
                  "one through the batch RunContext");
    return Map<SimResult>(cells.size(), [&](std::size_t i) {
      const auto& [instance, m] = cells[i];
      auto scheduler = make_scheduler(i);
      return Simulate(*instance, m, *scheduler, context);
    });
  }

  /// One instrumented cell: the simulation result plus the metrics its
  /// MetricsObserver collected.  Merge the registries (index order) for
  /// batch aggregates.
  struct InstrumentedRun {
    SimResult result;
    MetricsRegistry metrics;
  };

  /// RunSimulations with a MetricsObserver attached to every cell.  Each
  /// cell gets a private registry, so instrumentation adds no cross-worker
  /// coordination; pass record_pick_times = false in `observer_options`
  /// when the aggregate must be deterministic.  The observer slot of
  /// `context` must be empty — each cell installs its own MetricsObserver
  /// over the shared options/capacity.
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
