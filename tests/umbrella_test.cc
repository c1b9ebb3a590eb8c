// Compiles against ONLY the umbrella header and exercises one symbol per
// subsystem, locking in that otsched.h stays complete.
#include <gtest/gtest.h>

#include "otsched.h"

namespace otsched {
namespace {

TEST(Umbrella, OneSymbolPerSubsystem) {
  Rng rng(1);                                            // common
  const Dag tree = MakeTree(TreeFamily::kBushy, 20, rng);  // gen
  EXPECT_TRUE(IsOutTree(tree));                          // dag
  Instance instance;                                     // job
  instance.add_job(Job(Dag(tree), 0));
  FifoScheduler fifo;                                    // sched
  const SimResult result = Simulate(instance, 2, fifo);  // sim
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_GE(MaxFlowLowerBound(instance, 2), 1);          // opt
  EXPECT_EQ(BuildLpfSchedule(tree, 2).total_placed(), 20);  // core
  EXPECT_GE(ComputeFlowStats(result.flows).max, 1);      // analysis
  const EventTrace trace =                               // trace
      DeriveTrace(result.full_schedule(), instance);
  EXPECT_FALSE(trace.empty());
  LowerBoundSimOptions lb;                               // lbsim
  lb.m = 4;
  lb.num_jobs = 2;
  EXPECT_GT(RunLowerBoundSim(lb).max_flow, 0);
  FifoScheduler adaptive_fifo;                           // advsim
  AdaptiveAdversaryOptions adv;
  adv.m = 4;
  adv.num_jobs = 2;
  EXPECT_GT(RunAdaptiveAdversary(adaptive_fifo, adv).max_flow, 0);
}

}  // namespace
}  // namespace otsched
