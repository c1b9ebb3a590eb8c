// Edge cases of the Algorithm A window machinery.
#include <gtest/gtest.h>

#include "core/alg_a_full.h"
#include "dag/builders.h"
#include "gen/random_trees.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AlgAEdge, MissingBatchesLeaveEmptyWindows) {
  // Batches only at windows 0 and 5; the algorithm must idle across the
  // gap and stay aligned.
  Instance instance;
  Rng rng(1);
  instance.add_job(Job(MakeTree(TreeFamily::kMixed, 30, rng), 0));
  instance.add_job(Job(MakeTree(TreeFamily::kMixed, 30, rng), 5 * 4));
  AlgAScheduler::Options options;
  options.known_opt = 8;  // W = 4
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(AlgAEdge, TinyJobFinishesInsideItsHead) {
  // A job whose whole LPF schedule fits in the first window: no tail, no
  // MC, finished before phase 3 would ever touch it.
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  AlgAScheduler::Options options;
  options.known_opt = 8;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  EXPECT_EQ(result.flows.max_flow, 2);  // LPF replay, no delay
  EXPECT_EQ(scheduler.mc_busy_violations(), 0);
}

TEST(AlgAEdge, WindowOfOneSlot) {
  // known_opt = 2 gives W = 1: every slot is a window boundary.
  Instance instance;
  Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    instance.add_job(Job(MakeTree(TreeFamily::kBushy, 12, rng), i));
  }
  AlgAScheduler::Options options;
  options.known_opt = 2;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(AlgAEdge, AlphaTwoSplitsTheMachineInHalf) {
  // alpha = 2 is allowed mechanically (the Theorem 5.6 PROOF needs
  // alpha > 3, but the algorithm is well-defined); heads may then use
  // the whole machine.
  Instance instance;
  Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    instance.add_job(Job(MakeTree(TreeFamily::kMixed, 40, rng), 4 * i));
  }
  AlgAScheduler::Options options;
  options.alpha = 2;
  options.known_opt = 8;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
}

TEST(AlgAEdge, FullVersionWithLargeInitialGuessSkipsDoubling) {
  Instance instance;
  Rng rng(4);
  instance.add_job(Job(MakeTree(TreeFamily::kMixed, 50, rng), 0));
  AlgAScheduler::Options options;
  options.initial_guess = 64;  // far above this job's OPT
  options.beta = 8;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  EXPECT_EQ(scheduler.restarts(), 0);
  EXPECT_EQ(scheduler.guess(), 64);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
}

TEST(AlgAEdge, LateLoneArrivalAfterQuietPeriod) {
  Instance instance;
  Rng rng(5);
  instance.add_job(Job(MakeTree(TreeFamily::kBranchy, 20, rng), 0));
  instance.add_job(Job(MakeTree(TreeFamily::kBranchy, 20, rng), 1000));
  AlgAScheduler::Options options;
  options.beta = 8;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 4, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  // The late job must not be penalized by the early one's history: its
  // flow is bounded by the (settled) guess envelope.
  EXPECT_LE(result.flows.flow[1],
            3 * static_cast<Time>(options.beta) * scheduler.guess());
}

}  // namespace
}  // namespace otsched
