// Tests for sim/batch_runner.h: deterministic index-ordered results under
// any worker count, support for non-default-constructible results, and
// simulation cells.
#include "gtest_compat.h"

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

TEST(BatchRunner, MapSimulationsMatchesSerialRuns) {
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
        runner.Map<SimResult>(cells.size(), [&](std::size_t i) {
          return Simulate(*cells[i].first, cells[i].second, *make(i),
                          FlowOnlyOptions());
        });
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
