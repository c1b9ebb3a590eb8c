// Tests for the allow_general_dags extension of Algorithm A: no
// guarantees beyond feasibility, but feasibility must be ironclad.
#include "gtest_compat.h"

#include "core/alg_a_full.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/recursive.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AlgAGeneralDag, ForkJoinStreamIsFeasible) {
  Rng rng(1);
  Instance instance = MakePeriodicArrivals(
      8, 5,
      [](std::int64_t, Rng& r) { return MakeMapReducePipeline(3, 10, r); },
      rng);
  AlgAScheduler::Options options;
  options.beta = 16;
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << report.violation;
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(AlgAGeneralDag, SemiBatchedModeAcceptsDiamonds) {
  Instance instance;
  instance.add_job(Job(MakeForkJoin(6), 0));
  instance.add_job(Job(MakeForkJoin(4), 4));
  AlgAScheduler::Options options;
  options.known_opt = 8;
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
}

TEST(AlgAGeneralDag, StillRejectsWithoutTheFlag) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeForkJoin(3), 0));
  AlgAScheduler::Options options;
  options.beta = 16;
  AlgAScheduler scheduler(options);
  EXPECT_DEATH(Simulate(instance, 4, scheduler), "out-forest");
}

TEST(AlgAGeneralDag, RestartMidDiamondKeepsFeasibility) {
  // Force restarts while diamonds are half-executed: the remaining
  // sub-DAG (a general DAG with some sources removed) must replan
  // cleanly.
  Rng rng(2);
  Instance instance = MakeBurstyArrivals(
      3, 3, 6,
      [](std::int64_t, Rng& r) { return MakeMapReducePipeline(4, 12, r); },
      rng);
  AlgAScheduler::Options options;
  options.beta = 4;  // aggressive doubling
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << report.violation;
  EXPECT_GE(scheduler.restarts(), 1);
}

TEST(AlgAGeneralDag, MixedForestAndDagBatches) {
  Instance instance;
  Rng rng(3);
  instance.add_job(Job(MakeCompleteTree(2, 4), 0));
  instance.add_job(Job(MakeForkJoin(5), 0));
  instance.add_job(Job(MakeMapReducePipeline(2, 6, rng), 3));
  AlgAScheduler::Options options;
  options.beta = 16;
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 4, scheduler);
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_TRUE(result.flows.all_completed);
}

}  // namespace
}  // namespace otsched
