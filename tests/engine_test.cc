// Tests for sim/engine.h: readiness, arrivals, capacity, clairvoyance
// enforcement, and end-to-end feasibility of engine-produced schedules.
#include "gtest_compat.h"

#include "advsim/adaptive.h"
#include "common/rng.h"
#include "dag/builders.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "sim/validator.h"

namespace otsched {
namespace {

/// Greedy test scheduler: runs the first min(m, ready) subjobs.
class TakeAllScheduler : public Scheduler {
 public:
  std::string name() const override { return "take-all"; }
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override {
    int budget = view.m();
    for (JobId job : view.alive()) {
      for (NodeId v : view.ready(job)) {
        if (budget == 0) return;
        out.push_back({job, v});
        --budget;
      }
    }
  }
};

/// Scheduler that deliberately idles for `lazy_slots` slots first.
class LazyScheduler : public TakeAllScheduler {
 public:
  explicit LazyScheduler(Time lazy_slots) : lazy_slots_(lazy_slots) {}
  std::string name() const override { return "lazy"; }
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override {
    if (view.slot() <= lazy_slots_) return;
    TakeAllScheduler::pick(view, out);
  }

 private:
  Time lazy_slots_;
};

TEST(Engine, ChainOnOneProcessor) {
  Instance instance;
  instance.add_job(Job(MakeChain(4), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 1, scheduler);
  EXPECT_EQ(result.flows.max_flow, 4);
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance));
  EXPECT_EQ(result.stats.executed_subjobs, 4);
  EXPECT_EQ(result.stats.horizon, 4);
}

TEST(Engine, ChainIgnoresExtraProcessors) {
  Instance instance;
  instance.add_job(Job(MakeChain(4), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 8, scheduler);
  EXPECT_EQ(result.flows.max_flow, 4);  // span-bound, not work-bound
}

TEST(Engine, BlobSaturatesProcessors) {
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(10), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 3, scheduler);
  EXPECT_EQ(result.flows.max_flow, 4);  // ceil(10 / 3)
}

TEST(Engine, ReleaseDelaysFirstSlot) {
  Instance instance;
  instance.add_job(Job(MakeChain(1), 5));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 2, scheduler);
  EXPECT_EQ(result.flows.completion[0], 6);
  EXPECT_EQ(result.flows.flow[0], 1);
}

TEST(Engine, FastForwardsAcrossIdleGaps) {
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 1000000));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 1, scheduler);
  EXPECT_EQ(result.flows.completion[1], 1000001);
  EXPECT_EQ(result.flows.max_flow, 1);
}

TEST(Engine, ReadinessBlocksChildUntilNextSlot) {
  // star root -> 2 leaves on plenty of processors: root at slot 1,
  // leaves at slot 2; total flow 2.
  Instance instance;
  instance.add_job(Job(MakeStar(2), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 4, scheduler);
  EXPECT_EQ(result.flows.max_flow, 2);
  EXPECT_EQ(result.full_schedule().load(1), 1);
  EXPECT_EQ(result.full_schedule().load(2), 2);
}

TEST(Engine, SchedulerIdlingIsAllowed) {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  LazyScheduler scheduler(3);
  const SimResult result = Simulate(instance, 1, scheduler);
  EXPECT_EQ(result.flows.max_flow, 5);  // 3 idle slots + 2 work slots
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance));
}

TEST(Engine, AliveListIsFifoOrdered) {
  // Three jobs with releases 4, 0, 4: alive order must be release-major,
  // id-minor.
  Instance instance;
  instance.add_job(Job(MakeChain(10), 4));
  instance.add_job(Job(MakeChain(10), 0));
  instance.add_job(Job(MakeChain(10), 4));

  class OrderProbe : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      if (view.slot() == 6) {
        ASSERT_EQ(view.alive().size(), 3u);
        EXPECT_EQ(view.alive()[0], 1);
        EXPECT_EQ(view.alive()[1], 0);
        EXPECT_EQ(view.alive()[2], 2);
        checked = true;
      }
      for (JobId job : view.alive()) {
        for (NodeId v : view.ready(job)) {
          if (static_cast<int>(out.size()) == view.m()) return;
          out.push_back({job, v});
        }
      }
    }
    bool checked = false;
  } probe;
  Simulate(instance, 2, probe);
  EXPECT_TRUE(probe.checked);
}

TEST(Engine, ArrivalCallbackFiresAtReleasePlusOne) {
  Instance instance;
  instance.add_job(Job(MakeChain(1), 3));

  class ArrivalProbe : public TakeAllScheduler {
   public:
    void on_arrival(JobId id, const SchedulerView& view) override {
      EXPECT_EQ(id, 0);
      EXPECT_EQ(view.slot(), 4);
      fired = true;
    }
    bool fired = false;
  } probe;
  Simulate(instance, 1, probe);
  EXPECT_TRUE(probe.fired);
}

TEST(Engine, ProgressCountersAndRemainingWork) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));

  class ProgressProbe : public TakeAllScheduler {
   public:
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      EXPECT_EQ(view.remaining_work(0) + view.done_work(0), 3);
      if (view.slot() == 2) {
        EXPECT_EQ(view.done_work(0), 1);
        EXPECT_TRUE(view.executed(0, 0));
        EXPECT_FALSE(view.executed(0, 1));
      }
      TakeAllScheduler::pick(view, out);
    }
  } probe;
  Simulate(instance, 1, probe);
}

TEST(EngineDeath, NonClairvoyantDagAccessAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));

  class Nosy : public TakeAllScheduler {
   public:
    std::string name() const override { return "nosy"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      (void)view.dag(0);  // not declared clairvoyant -> abort
      TakeAllScheduler::pick(view, out);
    }
  } nosy;
  EXPECT_DEATH(Simulate(instance, 1, nosy), "non-clairvoyant");
}

TEST(EngineDeath, OverCapacityPickAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(4), 0));

  class Greedy : public Scheduler {
   public:
    std::string name() const override { return "greedy"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      for (NodeId v : view.ready(0)) out.push_back({0, v});  // all 4 on m=2
    }
  } greedy;
  EXPECT_DEATH(Simulate(instance, 2, greedy), "picked");
}

TEST(EngineDeath, NotReadyPickAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));

  class Jumper : public Scheduler {
   public:
    std::string name() const override { return "jumper"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      (void)view;
      out.push_back({0, 1});  // child before parent
    }
  } jumper;
  EXPECT_DEATH(Simulate(instance, 1, jumper), "not ready");
}

TEST(EngineDeath, DuplicateSameSlotPickAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(2), 0));

  class Duper : public Scheduler {
   public:
    std::string name() const override { return "duper"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      (void)view;
      out.push_back({0, 0});
      out.push_back({0, 0});
    }
  } duper;
  EXPECT_DEATH(Simulate(instance, 2, duper), "");
}

TEST(EngineDeath, StalledSchedulerHitsHorizonBound) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));

  class Stall : public Scheduler {
   public:
    std::string name() const override { return "stall"; }
    void pick(const SchedulerView&, std::vector<SubjobRef>&) override {}
  } stall;
  SimOptions options;
  options.max_horizon = 100;
  EXPECT_DEATH(Simulate(instance, 1, stall, options), "horizon");
}

TEST(Engine, FlowOnlySkipsScheduleButKeepsNumbers) {
  Instance instance;
  instance.add_job(Job(MakeStar(3), 0));
  instance.add_job(Job(MakeChain(4), 2));
  TakeAllScheduler full_scheduler;
  const SimResult full = Simulate(instance, 2, full_scheduler);
  TakeAllScheduler flow_scheduler;
  const SimResult flow = Simulate(instance, 2, flow_scheduler,
                                  FlowOnlyOptions());
  EXPECT_FALSE(flow.has_schedule());
  EXPECT_EQ(flow.flows.completion, full.flows.completion);
  EXPECT_EQ(flow.flows.flow, full.flows.flow);
  EXPECT_EQ(flow.flows.max_flow, full.flows.max_flow);
  EXPECT_EQ(flow.stats.horizon, full.stats.horizon);
  EXPECT_EQ(flow.stats.executed_subjobs, full.stats.executed_subjobs);
  EXPECT_EQ(flow.stats.idle_processor_slots,
            full.stats.idle_processor_slots);
  EXPECT_EQ(flow.stats.busy_slots, full.stats.busy_slots);
}

TEST(EngineDeath, FullScheduleAccessorOnFlowOnlyRun) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 1, scheduler,
                                    FlowOnlyOptions());
  EXPECT_DEATH((void)result.full_schedule(), "flow-only");
}

TEST(EngineDeath, ProcessorSlotCountOverflowAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The second job ends at slot 2^62 + 2, so m = 2 processor-slots pass
  // 2^63 - 1; m = 1 still fits.
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeChain(2), Time{1} << 62));
  TakeAllScheduler scheduler;
  const SimResult one = Simulate(instance, 1, scheduler, FlowOnlyOptions());
  EXPECT_EQ(one.stats.idle_processor_slots, (Time{1} << 62) + 2 - 4);
  EXPECT_DEATH(Simulate(instance, 2, scheduler, FlowOnlyOptions()),
               "overflow int64");
  EXPECT_DEATH(ReferenceSimulate(instance, 2, scheduler, FlowOnlyOptions()),
               "overflow int64");
}

TEST(Engine, ForceClairvoyanceOverride) {
  // A scheduler that declares clairvoyance can be run with it force-
  // disabled to prove it never actually touches DAGs — here we force it
  // ON for a non-clairvoyant one and read the DAG legally.
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));

  class Reader : public TakeAllScheduler {
   public:
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      EXPECT_EQ(view.dag(0).node_count(), 2);
      TakeAllScheduler::pick(view, out);
    }
  } reader;
  SimOptions options;
  options.clairvoyance = ClairvoyanceOverride::kAllow;
  const SimResult result = Simulate(instance, 1, reader, options);
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(Engine, ChaosSchedulerStaysFeasible) {
  // A deliberately erratic (but legal) policy: random subsets of ready
  // subjobs, often idling.  Whatever it does, the engine must yield a
  // feasible complete schedule.
  class Chaos : public Scheduler {
   public:
    std::string name() const override { return "chaos"; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      for (JobId job : view.alive()) {
        for (NodeId v : view.ready(job)) {
          if (static_cast<int>(out.size()) == view.m()) return;
          if (rng_.next_bool(0.4)) out.push_back({job, v});
        }
      }
    }

   private:
    Rng rng_{777};
  };

  Instance instance;
  instance.add_job(Job(MakeStar(6), 0));
  instance.add_job(Job(MakeChain(5), 2));
  instance.add_job(Job(MakeCompleteTree(2, 4), 4));
  Chaos chaos;
  const SimResult result = Simulate(instance, 3, chaos);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << report.violation;
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(Engine, StatsMatchSchedule) {
  Instance instance;
  instance.add_job(Job(MakeStar(3), 0));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 2, scheduler);
  EXPECT_EQ(result.stats.executed_subjobs, 4);
  EXPECT_EQ(result.stats.horizon, result.full_schedule().horizon());
  EXPECT_EQ(result.stats.idle_processor_slots,
            result.full_schedule().idle_processor_slots());
}

TEST(Engine, FastForwardJobReleasedExactlyAtTarget) {
  // After job 0 finishes the engine fast-forwards to release 7's first
  // runnable slot, 8.  Jobs 1 and 2 are both released exactly at the
  // fast-forward target: neither arrival may be skipped, and they must
  // enter the alive list in id order.
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 7));
  instance.add_job(Job(MakeChain(1), 7));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 1, scheduler);
  EXPECT_EQ(result.flows.completion[0], 1);
  EXPECT_EQ(result.flows.completion[1], 8);
  EXPECT_EQ(result.flows.completion[2], 9);
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.stats.busy_slots, 3);  // gap slots were skipped, not run
  EXPECT_EQ(result.stats.horizon, 9);
}

TEST(Engine, FastForwardChainsAcrossRepeatedGaps) {
  // Each job finishes before the next release: every gap takes the
  // fast-forward path, and each landing slot is exactly release + 1.
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 100));
  instance.add_job(Job(MakeChain(1), 200));
  TakeAllScheduler scheduler;
  const SimResult result = Simulate(instance, 2, scheduler);
  EXPECT_EQ(result.flows.completion[0], 1);
  EXPECT_EQ(result.flows.completion[1], 101);
  EXPECT_EQ(result.flows.completion[2], 201);
  EXPECT_EQ(result.flows.max_flow, 1);
  EXPECT_EQ(result.stats.busy_slots, 3);
}

TEST(Engine, AllIdleTailAdvancesSlotBySlot) {
  // The last job is alive while the scheduler idles: an all-idle tail at
  // the instance boundary.  Fast-forward must NOT fire (a job is alive),
  // the slot counter must advance one-by-one through the tail, and the
  // idle slots must show up in the flow.
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 2));
  LazyScheduler scheduler(10);  // idles slots 1..10
  const SimResult result = Simulate(instance, 1, scheduler);
  EXPECT_EQ(result.flows.completion[0], 11);
  EXPECT_EQ(result.flows.completion[1], 12);
  EXPECT_EQ(result.flows.flow[1], 10);  // completed 12, released 2
  EXPECT_EQ(result.stats.busy_slots, 2);
  EXPECT_EQ(result.stats.horizon, 12);
  EXPECT_TRUE(ValidateSchedule(result.full_schedule(), instance));
}

// ---- the run-capability gate ----

SimOptions CapabilityOptions(bool faults, bool job_faults, RecordMode record) {
  SimOptions options;
  options.record = record;
  if (faults) {
    options.faults.model = FaultModel::kRandomBlip;
    options.faults.rate = 0.3;
  }
  if (job_faults) options.job_faults.model = JobFaultModel::kRandomCrash;
  return options;
}

TEST(RunSupport, OneGateDecidesEveryRefusal) {
  const struct {
    const char* policy;
    bool faults;
    bool job_faults;
    RecordMode record;
    const char* want;  // "" = runnable, else a substring of the reason
  } cases[] = {
      {"alg-a/general", false, false, RecordMode::kFull, ""},
      {"alg-a/general", true, false, RecordMode::kFull,
       "does not support fluctuating capacity"},
      {"alg-a/general", false, true, RecordMode::kFlowOnly,
       "does not support job faults"},
      {"work-stealing", true, false, RecordMode::kFull, ""},
      {"work-stealing", false, true, RecordMode::kFlowOnly,
       "does not support job faults"},
      {"fifo/first-ready", false, true, RecordMode::kFull,
       "require --record flow"},
      {"fifo/first-ready", false, true, RecordMode::kFlowOnly, ""},
      {"fifo/first-ready", true, false, RecordMode::kFull, ""},
      {"fifo/first-ready", true, true, RecordMode::kFlowOnly, ""},
      {"fifo/first-ready", true, true, RecordMode::kFull,
       "require --record flow"},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const std::unique_ptr<Scheduler> policy = MakePolicy(cases[i].policy);
    ASSERT_NE(policy, nullptr) << cases[i].policy;
    const std::string error = RunSupportError(
        *policy, CapabilityOptions(cases[i].faults, cases[i].job_faults,
                                   cases[i].record));
    const std::string want = cases[i].want;
    // find("") == 0, so the second check only bites on refusals.
    EXPECT_EQ(error.empty(), want.empty()) << "case " << i << ": " << error;
    EXPECT_NE(error.find(want), std::string::npos)
        << "case " << i << ": " << error;
  }
}

TEST(RunSupportDeath, EveryEngineRefusesWhatTheGateRefuses) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  const std::unique_ptr<Scheduler> alg_a = MakePolicy("alg-a/general");
  const SimOptions faulted =
      CapabilityOptions(true, false, RecordMode::kFull);
  EXPECT_DEATH(Simulate(instance, 4, *alg_a, faulted),
               "does not support fluctuating capacity");

  const std::unique_ptr<Scheduler> stealing = MakePolicy("work-stealing");
  const SimOptions job_faulted =
      CapabilityOptions(false, true, RecordMode::kFlowOnly);
  EXPECT_DEATH(ReferenceSimulate(instance, 4, *stealing, job_faulted),
               "does not support job faults");

  // The adaptive adversary refuses job faults outright, even where the
  // gate would run them.
  const std::unique_ptr<Scheduler> fifo = MakePolicy("fifo/first-ready");
  AdaptiveAdversaryOptions adversary;
  adversary.m = 2;
  adversary.num_jobs = 1;
  EXPECT_DEATH(
      RunAdaptiveAdversary(
          *fifo, adversary,
          CapabilityOptions(false, true, RecordMode::kFlowOnly)),
      "adaptive adversary does not model job faults");
}

}  // namespace
}  // namespace otsched
