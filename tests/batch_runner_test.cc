// Tests for sim/batch_runner.h: deterministic index-ordered results under
// any worker count, support for non-default-constructible results, and
// the simulation fan-out convenience.
#include "gtest_compat.h"

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"

namespace otsched {
namespace {

TEST(BatchRunner, MapReturnsIndexOrderForAnyWorkerCount) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    const BatchRunner runner(workers);
    const std::vector<int> out =
        runner.Map<int>(100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(BatchRunner, MapSupportsNonDefaultConstructibleResults) {
  // Schedule has no default constructor — the exact shape SimResult cells
  // produce.
  const BatchRunner runner(3);
  const std::vector<Schedule> out = runner.Map<Schedule>(5, [](std::size_t i) {
    Schedule schedule(static_cast<int>(i) + 1);
    schedule.place(1, SubjobRef{0, 0});
    return schedule;
  });
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].m(), static_cast<int>(i) + 1);
    EXPECT_EQ(out[i].total_placed(), 1);
  }
}

TEST(BatchRunner, MapEmptyIsEmpty) {
  const BatchRunner runner;
  EXPECT_TRUE(runner.Map<int>(0, [](std::size_t) { return 0; }).empty());
}

TEST(BatchRunner, MapWithFailuresRecordsThrowingCellsAndKeepsTheRest) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const BatchRunner runner(workers);
    const BatchOutcome<int> outcome =
        runner.MapWithFailures<int>(20, [](std::size_t i) {
          if (i % 7 == 3) throw std::runtime_error("cell " + std::to_string(i));
          return static_cast<int>(i) * 2;
        });
    ASSERT_EQ(outcome.results.size(), 20u);
    ASSERT_EQ(outcome.failures.size(), 3u) << "workers " << workers;
    // Deterministic report: ascending index order, structured fields.
    EXPECT_EQ(outcome.failures[0].index, 3u);
    EXPECT_EQ(outcome.failures[1].index, 10u);
    EXPECT_EQ(outcome.failures[2].index, 17u);
    EXPECT_EQ(outcome.failures[0].what, "cell 3");
    EXPECT_EQ(outcome.failures[0].attempts, 1);
    EXPECT_FALSE(outcome.failures[0].timed_out);
    for (std::size_t i = 0; i < 20; ++i) {
      if (i % 7 == 3) {
        EXPECT_FALSE(outcome.results[i].has_value()) << i;
      } else {
        ASSERT_TRUE(outcome.results[i].has_value()) << i;
        EXPECT_EQ(*outcome.results[i], static_cast<int>(i) * 2);
      }
    }
  }
}

TEST(BatchRunner, MapWithFailuresBoundedRetrySucceedsOnLaterAttempt) {
  // Cells that fail once then succeed: with max_attempts = 3 every cell
  // recovers and the failure report is empty.
  std::array<std::atomic<int>, 8> tries{};
  BatchRunPolicy policy;
  policy.max_attempts = 3;
  const BatchRunner runner(2);
  const BatchOutcome<int> outcome = runner.MapWithFailures<int>(
      8,
      [&](std::size_t i) {
        if (tries[i].fetch_add(1) == 0) throw std::runtime_error("flaky");
        return static_cast<int>(i);
      },
      policy);
  EXPECT_TRUE(outcome.all_ok());
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(outcome.results[i].has_value());
    EXPECT_EQ(*outcome.results[i], static_cast<int>(i));
    EXPECT_EQ(tries[i].load(), 2) << "cell should succeed on attempt 2";
  }
}

TEST(BatchRunner, MapWithFailuresExhaustedRetriesReportAttemptCount) {
  BatchRunPolicy policy;
  policy.max_attempts = 4;
  const BatchRunner runner(1);
  std::atomic<int> calls{0};
  const BatchOutcome<int> outcome = runner.MapWithFailures<int>(
      1,
      [&](std::size_t) -> int {
        ++calls;
        throw std::runtime_error("always");
      },
      policy);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 4);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_FALSE(outcome.results[0].has_value());
}

TEST(BatchRunner, MapWithFailuresNonStdExceptionIsStructured) {
  const BatchRunner runner(1);
  const BatchOutcome<int> outcome =
      runner.MapWithFailures<int>(2, [](std::size_t i) -> int {
        if (i == 1) throw 7;  // not a std::exception
        return 0;
      });
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].what, "<unknown exception>");
}

TEST(BatchRunner, MapWithFailuresSoftTimeoutKeepsResultAndFlagsCell) {
  // The deadline is post-hoc: the slow cell's RESULT survives (values
  // stay machine-independent) but the cell is flagged timed_out.
  BatchRunPolicy policy;
  policy.cell_timeout_seconds = 1e-9;  // everything is too slow
  const BatchRunner runner(2);
  const BatchOutcome<int> outcome = runner.MapWithFailures<int>(
      3, [](std::size_t i) { return static_cast<int>(i); }, policy);
  ASSERT_EQ(outcome.failures.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(outcome.results[i].has_value()) << i;
    EXPECT_EQ(*outcome.results[i], static_cast<int>(i));
    EXPECT_TRUE(outcome.failures[i].timed_out);
    EXPECT_TRUE(outcome.failures[i].what.empty());
  }
}

TEST(BatchRunner, RunSimulationsMatchesSerialRuns) {
  Instance chains;
  chains.add_job(Job(MakeChain(6), 0));
  chains.add_job(Job(MakeChain(4), 2));
  Instance star;
  star.add_job(Job(MakeStar(5), 0));

  const std::vector<std::pair<const Instance*, int>> cells = {
      {&chains, 1}, {&chains, 2}, {&star, 2}, {&star, 4}};
  auto make = [](std::size_t) { return MakePolicy("fifo/first-ready"); };

  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const BatchRunner runner(workers);
    const std::vector<SimResult> parallel_results =
        runner.RunSimulations(std::span(cells), make);
    ASSERT_EQ(parallel_results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto scheduler = make(i);
      const SimResult serial =
          Simulate(*cells[i].first, cells[i].second, *scheduler);
      EXPECT_EQ(parallel_results[i].flows.max_flow, serial.flows.max_flow)
          << "cell " << i << " workers " << workers;
      EXPECT_EQ(parallel_results[i].stats.horizon, serial.stats.horizon)
          << "cell " << i << " workers " << workers;
    }
  }
}

TEST(BatchRunner, ParallelCellsAgreeOnAFreshSharedInstance) {
  // Every cell simulates the same freshly built instance, so the workers
  // race to fill each job's lazily computed metrics; the fill must be
  // thread-safe and every cell must see the same result.  Each round
  // builds a new instance, so every round races afresh.
  const BatchRunner runner(8);
  for (std::uint64_t round = 0; round < 8; ++round) {
    Rng rng(round);
    const Instance instance = MakePeriodicArrivals(
        2000, 1,
        [](std::int64_t i, Rng& r) {
          return MakeTree(static_cast<TreeFamily>(i % 4), 12, r);
        },
        rng);
    const std::vector<SimResult> results =
        runner.Map<SimResult>(16, [&](std::size_t) {
          const std::unique_ptr<Scheduler> policy =
              MakePolicy("fifo/first-ready");
          return Simulate(instance, 8, *policy, FlowOnlyOptions());
        });
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].flows.flow, results[0].flows.flow)
          << "round " << round << " cell " << i;
      EXPECT_EQ(results[i].stats.horizon, results[0].stats.horizon)
          << "round " << round << " cell " << i;
    }
  }
}

}  // namespace
}  // namespace otsched
