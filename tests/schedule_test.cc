// Tests for sim/schedule.h: slot storage, flows, idle accounting.
#include "gtest_compat.h"

#include "dag/builders.h"
#include "sim/schedule.h"

namespace otsched {
namespace {

Instance TwoChainInstance() {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeChain(1), 3));
  return instance;
}

TEST(Schedule, PlaceAndQuery) {
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(3, {0, 1});
  EXPECT_EQ(schedule.horizon(), 3);
  EXPECT_EQ(schedule.load(1), 1);
  EXPECT_EQ(schedule.load(2), 0);
  EXPECT_EQ(schedule.load(3), 1);
  EXPECT_EQ(schedule.load(99), 0);
  EXPECT_EQ(schedule.total_placed(), 2);
  EXPECT_EQ(schedule.at(1)[0], (SubjobRef{0, 0}));
}

TEST(Schedule, IdleProcessorSlots) {
  Schedule schedule(3);
  schedule.place(1, {0, 0});
  schedule.place(1, {0, 1});
  schedule.place(2, {0, 2});
  // Slot 1: 1 idle; slot 2: 2 idle.
  EXPECT_EQ(schedule.idle_processor_slots(), 3);
}

TEST(Schedule, IdleSlotsRange) {
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(1, {0, 1});
  schedule.place(2, {0, 2});
  schedule.place(3, {1, 0});
  const auto idle = schedule.idle_slots(1, 3);
  EXPECT_EQ(idle, (std::vector<Time>{2, 3}));
}

TEST(Schedule, SameSlotPlacementsKeepCallOrder) {
  // Placing again into the last slot appends to it; gaps stay empty.
  Schedule schedule(2);
  schedule.place(3, {0, 0});
  schedule.place(3, {0, 2});
  schedule.place(5, {1, 0});
  EXPECT_EQ(schedule.horizon(), 5);
  const auto slot3 = schedule.at(3);
  ASSERT_EQ(slot3.size(), 2u);
  EXPECT_EQ(slot3[0], (SubjobRef{0, 0}));
  EXPECT_EQ(slot3[1], (SubjobRef{0, 2}));
  EXPECT_TRUE(schedule.at(4).empty());
  ASSERT_EQ(schedule.at(5).size(), 1u);
  EXPECT_EQ(schedule.total_placed(), 3);
  EXPECT_EQ(schedule.idle_processor_slots(), 2 * 5 - 3);
}

TEST(Schedule, PlaceRefusesASlotBeforeTheHorizon) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Schedule schedule(2);
  schedule.place(2, {0, 0});
  EXPECT_DEATH(schedule.place(1, {0, 1}), "append-only");
}

TEST(Schedule, IdleSlotsEmptyRange) {
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  // from > to is an empty range, not an error.
  EXPECT_TRUE(schedule.idle_slots(3, 1).empty());
}

TEST(Schedule, IdleSlotsBeyondHorizonAreClamped) {
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 1});
  schedule.place(2, {0, 2});
  // The range is clamped to [1, horizon]: slots past the horizon are
  // not reported (callers reason about the schedule's extent only).
  EXPECT_EQ(schedule.idle_slots(1, 100), (std::vector<Time>{1}));
  EXPECT_TRUE(schedule.idle_slots(3, 100).empty());
}

TEST(Flows, CompletionAndFlow) {
  const Instance instance = TwoChainInstance();
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 1});
  schedule.place(4, {1, 0});
  const FlowSummary flows = ComputeFlows(schedule, instance);
  EXPECT_TRUE(flows.all_completed);
  EXPECT_EQ(flows.completion[0], 2);
  EXPECT_EQ(flows.flow[0], 2);
  EXPECT_EQ(flows.completion[1], 4);
  EXPECT_EQ(flows.flow[1], 1);  // released at 3, done at 4
  EXPECT_EQ(flows.max_flow, 2);
  EXPECT_EQ(flows.max_flow_job, 0);
}

TEST(Flows, DetectsUnfinishedJobs) {
  const Instance instance = TwoChainInstance();
  Schedule schedule(2);
  schedule.place(1, {0, 0});  // job 0 only half done, job 1 untouched
  const FlowSummary flows = ComputeFlows(schedule, instance);
  EXPECT_FALSE(flows.all_completed);
  EXPECT_EQ(flows.completion[0], kNoTime);
  EXPECT_EQ(flows.max_flow, kInfiniteTime);
}

TEST(Flows, EmptyInstance) {
  const FlowSummary flows = ComputeFlows(Schedule(1), Instance());
  EXPECT_TRUE(flows.all_completed);
  EXPECT_EQ(flows.max_flow, 0);
}

TEST(Flows, FlowIsAgainstRelease) {
  Instance instance;
  instance.add_job(Job(MakeChain(1), 10));
  Schedule schedule(1);
  schedule.place(15, {0, 0});
  const FlowSummary flows = ComputeFlows(schedule, instance);
  EXPECT_EQ(flows.flow[0], 5);
}

TEST(Flows, UnfinishedJobSemantics) {
  // Unfinished jobs use two distinct sentinels: completion is kNoTime
  // ("never finished") while flow saturates to kInfiniteTime (so max_flow
  // poisons upward rather than silently under-reporting).
  const Instance instance = TwoChainInstance();
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(4, {1, 0});  // job 1 completes, job 0 is half done
  const FlowSummary flows = ComputeFlows(schedule, instance);
  EXPECT_FALSE(flows.all_completed);
  EXPECT_EQ(flows.completion[0], kNoTime);
  EXPECT_EQ(flows.flow[0], kInfiniteTime);
  EXPECT_EQ(flows.completion[1], 4);
  EXPECT_EQ(flows.flow[1], 1);
  EXPECT_EQ(flows.max_flow, kInfiniteTime);
  EXPECT_EQ(flows.max_flow_job, 0);
}

TEST(Flows, AccumulatorMatchesScheduleDerivedWhenUnfinished) {
  // A legally-unfinished run (e.g. a horizon-capped simulation): the
  // incremental accumulator and the schedule walk must agree exactly,
  // including the unfinished sentinels.
  const Instance instance = TwoChainInstance();
  Schedule schedule(2);
  FlowAccumulator accumulator(instance);
  const auto feed = [&](Time slot, SubjobRef ref) {
    schedule.place(slot, ref);
    accumulator.record(slot, ref.job);
  };
  feed(1, {0, 0});
  feed(2, {0, 1});  // job 0 completes; job 1 never runs
  const FlowSummary incremental = accumulator.finish();
  const FlowSummary derived = ComputeFlows(schedule, instance);
  EXPECT_EQ(incremental.completion, derived.completion);
  EXPECT_EQ(incremental.flow, derived.flow);
  EXPECT_EQ(incremental.max_flow, derived.max_flow);
  EXPECT_EQ(incremental.max_flow_job, derived.max_flow_job);
  EXPECT_EQ(incremental.all_completed, derived.all_completed);
  EXPECT_FALSE(incremental.all_completed);
  EXPECT_EQ(incremental.completion[1], kNoTime);
  EXPECT_EQ(incremental.flow[1], kInfiniteTime);
}

TEST(Flows, AccumulatorAcceptsOutOfOrderSlots) {
  // record() takes the max slot per job, so feeding slots out of order
  // matches the ascending schedule walk.
  const Instance instance = TwoChainInstance();
  FlowAccumulator accumulator(instance);
  accumulator.record(2, 0);
  accumulator.record(1, 0);
  accumulator.record(4, 1);
  const FlowSummary flows = accumulator.finish();
  EXPECT_TRUE(flows.all_completed);
  EXPECT_EQ(flows.completion[0], 2);
  EXPECT_EQ(flows.completion[1], 4);
  EXPECT_EQ(flows.max_flow, 2);
}

}  // namespace
}  // namespace otsched
