// Tests for sim/job_faults.h: the JobFaultSpec shorthand parser and its
// per-token diagnostics, the counter-based determinism contract of the
// crash models, the checkpoint policies, and the reversible-core edge
// cases the fuzz harness cannot pin deterministically — a rollback with
// zero prior checkpoints (full restart), a rollback sharing its slot
// with a processor-fault capacity dip, a rollback after an unrelated
// job was retired, and — the acceptance gate — a >= 1000-case sweep
// holding the kNoLostWorkWhenHealthy and kCommittedFeasibility oracles
// plus engine equivalence under active faults.
#include "gtest_compat.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "common/rng.h"
#include "dag/builders.h"
#include "gen/random_trees.h"
#include "sched/fifo.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/job_faults.h"
#include "sim/observers.h"
#include "sim/trace.h"

namespace otsched {
namespace {

Instance ChainInstance(std::initializer_list<std::pair<NodeId, Time>> jobs) {
  Instance instance;
  instance.set_name("chains");
  for (const auto& [length, release] : jobs) {
    instance.add_job(Job(MakeChain(length), release));
  }
  return instance;
}

SimOptions FaultedFlowOnly(const JobFaultSpec& spec) {
  SimOptions options = FlowOnlyOptions();
  options.job_faults = spec;
  return options;
}

// ---- shorthand parsing ----

TEST(JobFaultSpec, ShorthandRoundTripsThroughToString) {
  std::string error;
  const std::optional<JobFaultSpec> crash =
      ParseJobFaultSpec("random-crash:7:0.1", &error);
  ASSERT_TRUE(crash.has_value()) << error;
  EXPECT_EQ(crash->model, JobFaultModel::kRandomCrash);
  EXPECT_EQ(crash->seed, 7u);
  EXPECT_DOUBLE_EQ(crash->rate, 0.1);
  EXPECT_EQ(ToString(*crash), "random-crash:7:0.1");

  const std::optional<JobFaultSpec> periodic =
      ParseJobFaultSpec("periodic-crash:3:32", &error);
  ASSERT_TRUE(periodic.has_value()) << error;
  EXPECT_EQ(periodic->model, JobFaultModel::kPeriodicCrash);
  EXPECT_EQ(periodic->period, 32);
  EXPECT_EQ(ToString(*periodic), "periodic-crash:3:32");

  // adversarial-loss's third field is the volatile-work trigger.
  const std::optional<JobFaultSpec> loss =
      ParseJobFaultSpec("adversarial-loss:1:4", &error);
  ASSERT_TRUE(loss.has_value()) << error;
  EXPECT_EQ(loss->model, JobFaultModel::kAdversarialLoss);
  EXPECT_EQ(loss->threshold, 4);
  EXPECT_EQ(ToString(*loss), "adversarial-loss:1:4");

  EXPECT_EQ(ToString(JobFaultSpec{}), "none");
}

TEST(JobFaultSpec, RejectsMalformedShorthandWithPerTokenDiagnostics) {
  std::string error;
  EXPECT_FALSE(ParseJobFaultSpec("meteor-strike", &error).has_value());
  EXPECT_NE(error.find("unknown job-fault model"), std::string::npos)
      << error;

  EXPECT_FALSE(ParseJobFaultSpec("random-crash:x", &error).has_value());
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  EXPECT_FALSE(ParseJobFaultSpec("random-crash:1:0.95", &error).has_value());
  EXPECT_NE(error.find("[0, 0.9]"), std::string::npos) << error;
  EXPECT_FALSE(ParseJobFaultSpec("random-crash:1:nan", &error).has_value());
  EXPECT_NE(error.find("[0, 0.9]"), std::string::npos) << error;

  EXPECT_FALSE(ParseJobFaultSpec("periodic-crash:1:1", &error).has_value());
  EXPECT_NE(error.find("period"), std::string::npos) << error;

  EXPECT_FALSE(ParseJobFaultSpec("adversarial-loss:1:0", &error).has_value());
  EXPECT_NE(error.find("threshold"), std::string::npos) << error;

  EXPECT_FALSE(
      ParseJobFaultSpec("random-crash:1:0.1:9", &error).has_value());
  EXPECT_NE(error.find("too many"), std::string::npos) << error;
}

TEST(JobFaultSpec, CheckpointPolicyShorthandParsesIntoSpec) {
  std::string error;
  JobFaultSpec spec;
  ASSERT_TRUE(ParseCheckpointPolicyInto("every-slots:4", &spec, &error))
      << error;
  EXPECT_EQ(spec.checkpoint, CheckpointPolicy::kEveryKSlots);
  EXPECT_EQ(spec.checkpoint_every, 4);
  EXPECT_EQ(CheckpointPolicyString(spec), "every-slots:4");

  ASSERT_TRUE(ParseCheckpointPolicyInto("every-subjobs:3", &spec, &error))
      << error;
  EXPECT_EQ(spec.checkpoint, CheckpointPolicy::kEveryKSubjobs);
  EXPECT_EQ(CheckpointPolicyString(spec), "every-subjobs:3");

  ASSERT_TRUE(ParseCheckpointPolicyInto("on-completion", &spec, &error))
      << error;
  EXPECT_EQ(spec.checkpoint, CheckpointPolicy::kOnCompletion);
  EXPECT_EQ(CheckpointPolicyString(spec), "on-completion");

  EXPECT_FALSE(ParseCheckpointPolicyInto("every-slots:0", &spec, &error));
  EXPECT_NE(error.find("interval"), std::string::npos) << error;
  EXPECT_FALSE(ParseCheckpointPolicyInto("on-completion:3", &spec, &error));
  EXPECT_NE(error.find("no interval"), std::string::npos) << error;
  EXPECT_FALSE(ParseCheckpointPolicyInto("hourly", &spec, &error));
  EXPECT_NE(error.find("checkpoint policy"), std::string::npos) << error;
}

// ---- sequencer determinism ----

TEST(JobFaultSequencer, RandomCrashIsAPureFunctionOfSeedSlotAndJob) {
  JobFaultSpec spec;
  spec.model = JobFaultModel::kRandomCrash;
  spec.seed = 42;
  spec.rate = 0.3;
  const JobFaultSequencer sequencer(spec);

  // Forward sweep, reverse sweep, and a fresh sequencer must agree on
  // every (slot, job): crashes are counter-based, never visit-order
  // dependent (the contract that keeps all three engines bit-identical
  // and makes fuzz repros replayable).
  std::vector<bool> forward;
  for (Time slot = 1; slot <= 100; ++slot) {
    for (JobId job = 0; job < 8; ++job) {
      forward.push_back(sequencer.crashes(slot, job, 0, 1));
    }
  }
  const JobFaultSequencer fresh(spec);
  std::size_t index = forward.size();
  for (Time slot = 100; slot >= 1; --slot) {
    for (JobId job = 7; job >= 0; --job) {
      --index;
      EXPECT_EQ(fresh.crashes(slot, job, 0, 1), forward[index])
          << "slot " << slot << " job " << job;
    }
  }

  // A job with no volatile work has nothing to lose and never crashes.
  bool crashed_somewhere = false;
  for (Time slot = 1; slot <= 100; ++slot) {
    EXPECT_FALSE(sequencer.crashes(slot, 0, 0, 0)) << "slot " << slot;
    crashed_somewhere = crashed_somewhere || sequencer.crashes(slot, 0, 0, 1);
  }
  EXPECT_TRUE(crashed_somewhere);

  // A different seed must diverge somewhere (the seed is actually mixed).
  JobFaultSpec other = spec;
  other.seed = 43;
  const JobFaultSequencer alt(other);
  bool diverged = false;
  index = 0;
  for (Time slot = 1; slot <= 100 && !diverged; ++slot) {
    for (JobId job = 0; job < 8; ++job) {
      diverged = diverged || alt.crashes(slot, job, 0, 1) != forward[index++];
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(JobFaultSequencer, PeriodicCrashFiresOnPositiveMultiplesOfAge) {
  JobFaultSpec spec;
  spec.model = JobFaultModel::kPeriodicCrash;
  spec.period = 5;
  const JobFaultSequencer sequencer(spec);
  // Age = slot - release; crashes exactly when age is a positive
  // multiple of the period.
  const Time release = 3;
  for (Time slot = release; slot <= release + 20; ++slot) {
    const Time age = slot - release;
    EXPECT_EQ(sequencer.crashes(slot, 0, release, 1),
              age > 0 && age % 5 == 0)
        << "slot " << slot;
  }
}

TEST(JobFaultSequencer, AdversarialLossTriggersAtTheVolatileThreshold) {
  JobFaultSpec spec;
  spec.model = JobFaultModel::kAdversarialLoss;
  spec.threshold = 4;
  const JobFaultSequencer sequencer(spec);
  EXPECT_FALSE(sequencer.crashes(10, 0, 0, 3));
  EXPECT_TRUE(sequencer.crashes(10, 0, 0, 4));
  EXPECT_TRUE(sequencer.crashes(10, 0, 0, 9));
}

TEST(JobFaultSequencer, CheckpointDueFollowsThePolicy) {
  JobFaultSpec spec;
  spec.model = JobFaultModel::kRandomCrash;
  spec.checkpoint = CheckpointPolicy::kEveryKSlots;
  spec.checkpoint_every = 3;
  const JobFaultSequencer slots(spec);
  EXPECT_TRUE(slots.checkpoint_due(3, 1));
  EXPECT_FALSE(slots.checkpoint_due(4, 1));
  EXPECT_TRUE(slots.checkpoint_due(6, 1));
  EXPECT_FALSE(slots.checkpoint_due(6, 0));  // nothing volatile to commit

  spec.checkpoint = CheckpointPolicy::kEveryKSubjobs;
  const JobFaultSequencer subjobs(spec);
  EXPECT_FALSE(subjobs.checkpoint_due(5, 2));
  EXPECT_TRUE(subjobs.checkpoint_due(5, 3));
  EXPECT_TRUE(subjobs.checkpoint_due(5, 7));

  spec.checkpoint = CheckpointPolicy::kOnCompletion;
  const JobFaultSequencer completion(spec);
  EXPECT_FALSE(completion.checkpoint_due(3, 5));  // only the finish commits
}

// ---- deterministic engine edge cases ----

// A rollback with ZERO prior checkpoints is a full restart.  Chain of 6,
// m = 1, periodic crash at age 6, on-completion policy: the job executes
// slots 1..5 (one short of finishing), crashes at the top of slot 6
// losing all 5 subjobs, restarts inside slot 6, and finishes at slot 11.
TEST(JobFaultEngine, RollbackWithZeroCheckpointsRestartsTheJob) {
  const Instance instance = ChainInstance({{6, 0}});
  JobFaultSpec spec;
  spec.model = JobFaultModel::kPeriodicCrash;
  spec.period = 6;
  spec.checkpoint = CheckpointPolicy::kOnCompletion;

  FifoScheduler fifo;
  const SimResult result =
      Simulate(instance, 1, fifo, FaultedFlowOnly(spec));
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.flows.max_flow, 11);
  EXPECT_EQ(result.stats.job_rollbacks, 1);
  EXPECT_EQ(result.stats.wasted_subjob_slots, 5);
  EXPECT_EQ(result.stats.checkpoints, 0);  // no interval commits
  EXPECT_EQ(result.stats.horizon, 11);
  // Busy slots include the re-executed work; the committed count does not.
  EXPECT_EQ(result.stats.executed_subjobs, 6);
  EXPECT_EQ(result.stats.busy_slots, 11);
}

// A rollback sharing its slot with a processor-fault capacity dip: the
// dip zeroes the slot's capacity, and the crash at the same slot rolls
// the job back.  Chain of 6, m = 1, periodic crash at age 6, a budget
// trace dipping slot 6 to capacity 0.  Timeline: execute 1..5 (5 done),
// slot 6 crashes (waste 5) AND has no capacity (nothing executes),
// execute 7..11 (5 done), slot 12 crashes again (waste 5), restart
// inside slot 12, finish at slot 17.
TEST(JobFaultEngine, RollbackSharesSlotWithCapacityDip) {
  const Instance instance = ChainInstance({{6, 0}});
  BudgetTrace dip;
  dip.set(6, 0);

  JobFaultSpec job_spec;
  job_spec.model = JobFaultModel::kPeriodicCrash;
  job_spec.period = 6;

  SimOptions options = FaultedFlowOnly(job_spec);
  options.faults.model = FaultModel::kTrace;
  options.faults.trace = &dip;

  FifoScheduler fifo;
  const SimResult result = Simulate(instance, 1, fifo, options);
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.flows.max_flow, 17);
  EXPECT_EQ(result.stats.job_rollbacks, 2);
  EXPECT_EQ(result.stats.wasted_subjob_slots, 10);
  EXPECT_EQ(result.stats.faulted_slots, 1);

  // The reference engine must agree bit-for-bit on the combined
  // processor-fault + job-fault slot.
  FifoScheduler reference_fifo;
  const SimResult reference =
      ReferenceSimulate(instance, 1, reference_fifo, options);
  EXPECT_EQ(reference.flows.max_flow, result.flows.max_flow);
  EXPECT_EQ(reference.stats.job_rollbacks, result.stats.job_rollbacks);
  EXPECT_EQ(reference.stats.wasted_subjob_slots,
            result.stats.wasted_subjob_slots);
  EXPECT_EQ(reference.stats.horizon, result.stats.horizon);
}

// A rollback AFTER an unrelated job was retired: job A (chain of 2)
// finishes at slot 2 and is retired immediately; job B (chain of 6)
// crashes at slot 6 — after A's arena region was recycled — and must
// roll back cleanly.  m = 2 so both jobs run concurrently.
TEST(JobFaultEngine, RollbackAfterRetireFinishedOfUnrelatedJob) {
  JobFaultSpec spec;
  spec.model = JobFaultModel::kPeriodicCrash;
  spec.period = 6;

  FifoScheduler fifo;
  RunContext context;
  context.options = FaultedFlowOnly(spec);
  SimDriver driver(2, fifo, context);
  const JobId a = driver.submit(Job(MakeChain(2), 0));
  const JobId b = driver.submit(Job(MakeChain(6), 0));

  std::size_t retired = 0;
  std::vector<SimDriver::FinishedJob> finished;
  while (driver.advance(1) > 0) {
    for (const SimDriver::FinishedJob& done : driver.take_finished()) {
      finished.push_back(done);
    }
    // Retire eagerly so A's node region is recycled well before B's
    // crash at slot 6.
    retired += driver.retire_finished();
  }
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(retired, 2u);
  EXPECT_EQ(finished[0].job, a);
  EXPECT_EQ(finished[0].finish, 2);
  EXPECT_EQ(finished[1].job, b);
  // B executes 1..5, crashes at the top of slot 6 (waste 5), restarts
  // inside slot 6, finishes at slot 11.
  EXPECT_EQ(finished[1].finish, 11);

  const SimResult result = driver.drain();
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.stats.job_rollbacks, 1);
  EXPECT_EQ(result.stats.wasted_subjob_slots, 5);
}

// every-slots checkpointing bounds the waste: chain of 12, m = 1,
// periodic crash at age 5, commits every 2 slots.  The only crash slots
// with volatile work are multiples of 5 that follow an odd slot — slot
// 10 (1 volatile subjob from slot 9).  Hand timeline: execute 1..9
// (commits at 2, 4, 6, 8), slot 10 crashes (waste 1, back to 8 done),
// re-executes inside slot 10 (commit at 10), finishes at slot 13.
TEST(JobFaultEngine, EveryKSlotsCheckpointLimitsWaste) {
  const Instance instance = ChainInstance({{12, 0}});
  JobFaultSpec spec;
  spec.model = JobFaultModel::kPeriodicCrash;
  spec.period = 5;
  spec.checkpoint = CheckpointPolicy::kEveryKSlots;
  spec.checkpoint_every = 2;

  FifoScheduler fifo;
  const SimResult result =
      Simulate(instance, 1, fifo, FaultedFlowOnly(spec));
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.flows.max_flow, 13);
  EXPECT_EQ(result.stats.job_rollbacks, 1);
  EXPECT_EQ(result.stats.wasted_subjob_slots, 1);
  // Interval commits at slots 2, 4, 6, 8, 10, 12; the finish at slot 13
  // commits implicitly and is not counted.
  EXPECT_EQ(result.stats.checkpoints, 6);
}

// every-subjobs checkpointing can defuse an adversarial trigger: with a
// commit every 3 subjobs, volatile work never reaches the loss threshold
// of 5, so the adversary never fires at all.
TEST(JobFaultEngine, EveryKSubjobsCheckpointDefusesAdversarialLoss) {
  const Instance instance = ChainInstance({{12, 0}});
  JobFaultSpec spec;
  spec.model = JobFaultModel::kAdversarialLoss;
  spec.threshold = 5;
  spec.checkpoint = CheckpointPolicy::kEveryKSubjobs;
  spec.checkpoint_every = 3;

  FifoScheduler fifo;
  const SimResult result =
      Simulate(instance, 1, fifo, FaultedFlowOnly(spec));
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.flows.max_flow, 12);
  EXPECT_EQ(result.stats.job_rollbacks, 0);
  EXPECT_EQ(result.stats.wasted_subjob_slots, 0);
  // Commits when volatile work reaches 3: after slots 3, 6, and 9; the
  // finish at slot 12 commits implicitly.
  EXPECT_EQ(result.stats.checkpoints, 3);
}

// ---- the >= 1000-case acceptance sweep ----

// Random small forests x crash models x checkpoint policies.  Every case
// holds:
//   * kNoLostWorkWhenHealthy — an armed-but-silent run (rate 0) is
//     bit-identical to faults-off;
//   * kCommittedFeasibility — the streamed event trace of an actively
//     crashing run is feasible over committed work and its execute count
//     reconciles exactly as total_work + wasted_subjob_slots;
//   * engine equivalence — SimDriver and ReferenceSimulate agree on
//     flows and fault stats under active faults (every 4th case).
TEST(JobFaultFuzz, ThousandCaseSweepHoldsTheRollbackContracts) {
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(seed * 7919);
    Instance instance;
    instance.set_name("fuzz");
    const int jobs = 2 + static_cast<int>(seed % 3);
    for (int j = 0; j < jobs; ++j) {
      const NodeId nodes = 4 + static_cast<NodeId>(rng.next_below(9));
      const Time release = static_cast<Time>(rng.next_below(5));
      instance.add_job(Job(MakeAttachmentTree(nodes, 0.4, rng), release));
    }
    const int m = 1 + static_cast<int>(seed % 4);

    for (int variant = 0; variant < 4; ++variant) {
      JobFaultSpec active;
      switch (variant % 3) {
        case 0:
          active.model = JobFaultModel::kRandomCrash;
          active.seed = seed;
          active.rate = 0.05 + 0.05 * static_cast<double>(variant);
          break;
        case 1:
          active.model = JobFaultModel::kPeriodicCrash;
          active.period = 3 + static_cast<Time>(seed % 13);
          break;
        default:
          active.model = JobFaultModel::kAdversarialLoss;
          active.threshold = 2 + static_cast<std::int64_t>(seed % 7);
          break;
      }
      // every-slots checkpointing guarantees progress against every
      // crash model (any job served in a commit slot banks >= 1
      // subjob); the service-coupled policies are covered by the
      // deterministic cases above.
      active.checkpoint = CheckpointPolicy::kEveryKSlots;
      active.checkpoint_every = 2 + static_cast<std::int64_t>(seed % 5);
      ++cases;

      // Leg 1: no-lost-work.  Armed with rate 0 so the model never
      // fires; everything but the checkpoint bookkeeping must be
      // bit-identical to faults-off.
      JobFaultSpec armed = active;
      armed.model = JobFaultModel::kRandomCrash;
      armed.rate = 0.0;
      FifoScheduler baseline_fifo;
      const SimResult baseline =
          Simulate(instance, m, baseline_fifo, FlowOnlyOptions());
      FifoScheduler armed_fifo;
      const SimResult armed_run =
          Simulate(instance, m, armed_fifo, FaultedFlowOnly(armed));
      const OracleResult healthy =
          CheckNoLostWorkWhenHealthyOracle(baseline, armed_run);
      ASSERT_TRUE(healthy.ok)
          << "seed " << seed << " variant " << variant << ": "
          << healthy.detail;

      // Leg 2: committed feasibility + reconciliation on an actively
      // crashing run, from the streamed trace.
      EventTrace streamed;
      StreamingTraceObserver tracer(streamed);
      RunContext context{FaultedFlowOnly(active), &tracer};
      FifoScheduler active_fifo;
      const SimResult crashed =
          Simulate(instance, m, active_fifo, context);
      EXPECT_TRUE(crashed.flows.all_completed)
          << "seed " << seed << " variant " << variant;
      const OracleResult feasible = CheckCommittedFeasibilityOracle(
          streamed, instance, m, crashed.stats);
      ASSERT_TRUE(feasible.ok)
          << "seed " << seed << " variant " << variant << " ("
          << ToString(active) << "): " << feasible.detail;

      // Leg 3: engine equivalence under active faults.
      if (variant == static_cast<int>(seed % 4)) {
        FifoScheduler reference_fifo;
        const SimResult reference = ReferenceSimulate(
            instance, m, reference_fifo, FaultedFlowOnly(active));
        EXPECT_EQ(reference.flows.max_flow, crashed.flows.max_flow)
            << "seed " << seed << " variant " << variant;
        EXPECT_EQ(reference.stats.job_rollbacks,
                  crashed.stats.job_rollbacks)
            << "seed " << seed << " variant " << variant;
        EXPECT_EQ(reference.stats.wasted_subjob_slots,
                  crashed.stats.wasted_subjob_slots)
            << "seed " << seed << " variant " << variant;
        EXPECT_EQ(reference.stats.horizon, crashed.stats.horizon)
            << "seed " << seed << " variant " << variant;
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

}  // namespace
}  // namespace otsched
