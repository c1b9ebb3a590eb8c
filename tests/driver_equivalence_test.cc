// The tick/advance gate for the incremental SimDriver: stepping a driver
// one slot at a time (advance(1) ... drain()) must be BIT-IDENTICAL to
// one-shot Simulate — same Schedule, flows, stats, and identical
// SlotEvent streams — for every registry policy, in both record modes,
// with and without observers, under fluctuating fault budgets and under
// job faults.  Simulate() itself is a thin submit_all+drain loop over the
// driver, so this suite is what licenses the claim that the batch path
// and the tick path are the same code.
//
// On top of the equivalence matrix: the streaming contract — mid-run
// submit() between advances lands jobs in the same (release, id) arrival
// order the batch path uses, take_finished() reports every completion
// exactly once with flow == finish - release, and retire_finished()
// keeps arena memory proportional to the live width of the stream
// instead of the length of the run.  Held subjobs: submit(job, shown)
// keeps them out of every ready set until reveal() releases them, and
// exhausted() reports each job whose ready set ran dry before it
// finished.
#include "gtest_compat.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/random_trees.h"
#include "sched/fifo.h"
#include "sched/registry.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/trace.h"
#include "same_run.h"
#include "slot_event_recorder.h"

namespace otsched {
namespace {

/// Runs one (instance, m, policy) case through advance(1) ticking and
/// through one-shot Simulate under identical options, with and without
/// observers, and requires bit-identical everything.
void CheckTickEqualsBatch(const Instance& instance, int m,
                          const PolicySpec& spec, Time known_opt,
                          const SimOptions& options,
                          const std::string& label) {
  const std::uint64_t seed = 12345;
  const auto make = [&] { return spec.make(seed, known_opt); };

  // Batch baseline.
  auto batch_scheduler = make();
  const SimResult batch = Simulate(instance, m, *batch_scheduler, options);

  // Tick: advance one slot at a time until idle, then drain.
  auto tick_scheduler = make();
  SimDriver driver(m, *tick_scheduler, options);
  driver.submit_all(instance);
  Time ticks = 0;
  while (driver.advance(1) > 0) {
    ++ticks;
    // A static DAG's ready set only empties when its job finishes.
    EXPECT_TRUE(driver.exhausted().empty()) << label << " slot " << ticks;
  }
  EXPECT_EQ(driver.advance(1), 0) << label;  // idle drivers report 0
  EXPECT_TRUE(driver.idle()) << label;
  const SimResult tick = driver.drain();
  ASSERT_EQ(tick.has_schedule(), batch.has_schedule()) << label;
  ExpectSameRun(tick, batch, label + " [tick]");

  // Observed legs: both paths must deliver identical event streams and
  // the attached observers must not perturb the run.
  auto observed_batch_scheduler = make();
  SlotEventRecorder batch_recorder;
  RunContext batch_context{options, &batch_recorder};
  const SimResult observed_batch =
      Simulate(instance, m, *observed_batch_scheduler, batch_context);
  ExpectSameRun(observed_batch, batch, label + " [observed batch]");

  auto observed_tick_scheduler = make();
  SlotEventRecorder tick_recorder;
  EventTrace streamed;
  StreamingTraceObserver tracer(streamed);
  ObserverList observers;
  observers.add(&tick_recorder);
  observers.add(&tracer);
  RunContext tick_context{options, &observers};
  SimDriver observed_driver(m, *observed_tick_scheduler, tick_context);
  observed_driver.submit_all(instance);
  while (observed_driver.advance(1) > 0) {
  }
  const SimResult observed_tick = observed_driver.drain();
  ExpectSameRun(observed_tick, batch, label + " [observed tick]");
  EXPECT_EQ(
      FirstEventDivergence(tick_recorder.stream(), batch_recorder.stream()),
      -1)
      << label << " [event stream]";
  if (batch.has_schedule()) {
    EXPECT_EQ(FirstDivergence(streamed,
                              DeriveTrace(batch.full_schedule(), instance)),
              -1)
        << label << " [streamed trace]";
  }
}

/// The full matrix on one corpus instance: every applicable policy ×
/// both record modes × ±faults × ±job faults (each leg internally
/// ±observers).  `known_opt` is the corpus's certified OPT (0 = none).
void CheckMatrix(const Instance& instance, int m, Time known_opt,
                 const std::string& corpus_label) {
  FaultSpec blip;
  blip.model = FaultModel::kRandomBlip;
  blip.seed = 5;
  blip.rate = 0.4;
  SimOptions job_faulted = FlowOnlyOptions();
  job_faulted.job_faults.model = JobFaultModel::kRandomCrash;
  job_faulted.job_faults.seed = 11;
  job_faulted.job_faults.rate = 0.2;
  job_faulted.job_faults.checkpoint = CheckpointPolicy::kEveryKSlots;
  job_faulted.job_faults.checkpoint_every = 3;

  for (const PolicySpec& spec : AllPolicies()) {
    if (SkipCase(spec, instance, m, known_opt)) continue;
    std::ostringstream base;
    base << corpus_label << " / " << spec.name << " / m=" << m;

    SimOptions full;
    CheckTickEqualsBatch(instance, m, spec, known_opt, full,
                         base.str() + " full");
    CheckTickEqualsBatch(instance, m, spec, known_opt, FlowOnlyOptions(),
                         base.str() + " flow-only");

    // Fault legs for capacity-aware policies (window planners opt out of
    // fluctuating capacity and the engines CHECK that).
    if (spec.make(1)->supports_fluctuating_capacity()) {
      SimOptions faulted;
      faulted.faults = blip;
      CheckTickEqualsBatch(instance, m, spec, known_opt, faulted,
                           base.str() + " faulted");
      SimOptions faulted_flow;
      faulted_flow.faults = blip;
      faulted_flow.record = RecordMode::kFlowOnly;
      CheckTickEqualsBatch(instance, m, spec, known_opt, faulted_flow,
                           base.str() + " faulted flow-only");
    }
    if (RunSupportError(*spec.make(1), job_faulted).empty()) {
      CheckTickEqualsBatch(instance, m, spec, known_opt, job_faulted,
                           base.str() + " job-faulted");
    }
  }
}

TEST(DriverEquivalence, PoissonTreeMixAllPolicies) {
  Rng rng(7);
  Instance instance = MakePoissonArrivals(
      6, 0.2,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(5 + r.next_below(20)), r);
      },
      rng);
  // The same jobs in reverse id order: releases fall as ids rise, so the
  // arrival order is not the submission order.
  const Instance reversed(
      std::vector<Job>(instance.jobs().rbegin(), instance.jobs().rend()));
  for (int m : {1, 3}) {
    CheckMatrix(instance, m, /*known_opt=*/0, "tick-poisson");
    CheckMatrix(reversed, m, /*known_opt=*/0, "tick-poisson-reversed");
  }
}

TEST(DriverEquivalence, CertifiedPipelinedSemiBatched) {
  Rng rng(42);
  CertifiedInstance cert = MakePipelinedSemiBatchedInstance(4, 2, 3, rng);
  CheckMatrix(cert.instance, 4, cert.opt, "tick-pipelined");
}

TEST(DriverEquivalence, SaturatedCertifiedBatches) {
  Rng rng(42);
  CertifiedInstance cert = MakeSpacedSaturatedInstance(4, 3, 3, rng);
  CheckMatrix(cert.instance, 4, /*known_opt=*/0, "tick-saturated");
}

// ---- streaming: submit() between advances ----

TEST(DriverStreaming, MidRunSubmitMatchesBatchArrivalOrder) {
  // Jobs released at 0, 2, 5, 3; the batch path sees them all up front,
  // the streaming path submits each one mid-run before its release
  // becomes current — the last two between the same two advances, out of
  // release order.  Identical schedules prove the (release, id) order.
  Instance instance;
  instance.add_job(Job(MakeChain(4), 0));
  instance.add_job(Job(MakeStar(3), 2));
  instance.add_job(Job(MakeChain(3), 5));
  instance.add_job(Job(MakeChain(2), 3));

  FifoScheduler batch_fifo;
  const SimResult batch = Simulate(instance, 2, batch_fifo);

  FifoScheduler tick_fifo;
  SlotEventRecorder recorder;
  RunContext context;
  context.observer = &recorder;
  SimDriver driver(2, tick_fifo, context);
  driver.submit(Job(MakeChain(4), 0));
  // Advance past slot 1, then submit the release-2 job (2 >= now()).
  ASSERT_GT(driver.advance(1), 0);
  ASSERT_EQ(driver.now(), 1);
  EXPECT_EQ(driver.submit(Job(MakeStar(3), 2)), 1);
  ASSERT_GT(driver.advance(2), 0);
  ASSERT_EQ(driver.now(), 3);
  EXPECT_EQ(driver.submit(Job(MakeChain(3), 5)), 2);
  EXPECT_EQ(driver.submit(Job(MakeChain(2), 3)), 3);
  while (driver.advance(1) > 0) {
  }
  const SimResult tick = driver.drain();
  ExpectSameRun(tick, batch, "mid-run submit");
  // The release-3 job, submitted last, arrives before the release-5 one.
  std::vector<JobId> arrivals;
  for (const SlotEvent& event : recorder.stream()) {
    if (event.kind == SlotEvent::Kind::kArrival) arrivals.push_back(event.job);
  }
  EXPECT_EQ(arrivals, (std::vector<JobId>{0, 1, 3, 2}));
}

TEST(DriverStreaming, TakeFinishedReportsEveryJobOnceWithExactFlows) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  instance.add_job(Job(MakeStar(4), 1));
  instance.add_job(Job(MakeChain(2), 4));

  FifoScheduler fifo;
  SimDriver driver(2, fifo);
  for (JobId id = 0; id < instance.job_count(); ++id) {
    driver.submit(Job(instance.job(id)));
  }
  std::vector<SimDriver::FinishedJob> finished;
  while (driver.advance(1) > 0) {
    for (const SimDriver::FinishedJob& f : driver.take_finished()) {
      finished.push_back(f);
    }
  }
  const SimResult result = driver.drain();
  ASSERT_EQ(finished.size(), 3u);
  // Every job exactly once, flow == finish - release, and the reported
  // flows agree with the run's FlowSummary.
  std::vector<bool> seen(3, false);
  for (const SimDriver::FinishedJob& f : finished) {
    ASSERT_GE(f.job, 0);
    ASSERT_LT(f.job, 3);
    EXPECT_FALSE(seen[static_cast<std::size_t>(f.job)]) << f.job;
    seen[static_cast<std::size_t>(f.job)] = true;
    EXPECT_EQ(f.flow, f.finish - f.release) << f.job;
    EXPECT_EQ(f.release, instance.job(f.job).release()) << f.job;
    EXPECT_EQ(f.finish,
              result.flows.completion[static_cast<std::size_t>(f.job)])
        << f.job;
    EXPECT_EQ(f.flow, result.flows.flow[static_cast<std::size_t>(f.job)])
        << f.job;
  }
  // Nothing left in the backlog.
  EXPECT_TRUE(driver.take_finished().empty());
}

TEST(DriverStreaming, RetireFinishedBoundsArenaToLiveWidth) {
  // A long sequential stream: 200 chain jobs, each released after the
  // previous one finishes (release = 3 * i on m=1 so at most two jobs are
  // ever live).  With retire-on-finish the arena must stay O(width), not
  // O(stream length).
  constexpr int kJobs = 200;
  constexpr NodeId kChain = 3;
  FifoScheduler fifo;
  SimDriver driver(1, fifo);
  std::int64_t peak_nodes = 0;
  JobId next = 0;
  std::size_t retired = 0;
  while (next < kJobs || !driver.idle()) {
    while (next < kJobs &&
           static_cast<Time>(kChain) * next <= driver.now() + 1) {
      driver.submit(Job(MakeChain(kChain), static_cast<Time>(kChain) * next));
      ++next;
    }
    if (driver.advance(1) == 0 && next < kJobs) {
      // Idle gap before the next release: submit unblocks the stream.
      continue;
    }
    retired += driver.retire_finished();
    peak_nodes = std::max(peak_nodes, driver.arena_nodes());
  }
  const SimResult result = driver.drain();
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(retired, static_cast<std::size_t>(kJobs));
  // 200 jobs x 3 nodes = 600 total; the live width is ~2 jobs, so the
  // recycled arena stays tiny.  The bound leaves generous slack — the
  // point is the asymptotics, not the constant.
  EXPECT_LE(peak_nodes, 64) << "arena grew with stream length";
}

TEST(DriverStreaming, RetiredJobsStillAnswerFlowQueries) {
  FifoScheduler fifo;
  SimDriver driver(2, fifo);
  driver.submit(Job(MakeChain(2), 0));
  driver.submit(Job(MakeChain(6), 0));
  while (driver.advance(1) > 0) {
    driver.retire_finished();
  }
  // Job 0 finished and was retired mid-run; the driver still reports its
  // cold facts (release / finished / done_work) and drain() still
  // produces a complete FlowSummary for both jobs.
  EXPECT_TRUE(driver.finished(0));
  EXPECT_EQ(driver.release(0), 0);
  EXPECT_EQ(driver.done_work(0), 2);
  const SimResult result = driver.drain();
  EXPECT_TRUE(result.flows.all_completed);
  ASSERT_EQ(result.flows.flow.size(), 2u);
  EXPECT_EQ(result.flows.flow[0], 2);
}

// ---- held subjobs: submit(job, shown) / reveal / exhausted ----

/// Picks ready subjobs of every alive job in reverse ready order (so the
/// front of a ready set executes last) and logs each slot's ready sets.
class ReverseLogger final : public Scheduler {
 public:
  std::string name() const override { return "reverse-logger"; }
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override {
    std::vector<NodeId>& seen = seen_.emplace_back();
    for (const JobId job : view.alive()) {
      const std::span<const NodeId> ready = view.ready(job);
      seen.insert(seen.end(), ready.begin(), ready.end());
      for (auto it = ready.rbegin(); it != ready.rend(); ++it) {
        if (static_cast<int>(out.size()) == view.capacity()) return;
        out.push_back({job, *it});
      }
    }
  }
  /// Ready subjobs seen at each visited slot, in ready order.
  const std::vector<std::vector<NodeId>>& seen() const { return seen_; }

 private:
  std::vector<std::vector<NodeId>> seen_;
};

/// A scheduler whose pick is a test-supplied function.
class ScriptedScheduler final : public Scheduler {
 public:
  using PickFn =
      std::function<void(const SchedulerView&, std::vector<SubjobRef>&)>;
  explicit ScriptedScheduler(PickFn pick) : pick_(std::move(pick)) {}
  std::string name() const override { return "scripted"; }
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override {
    pick_(view, out);
  }

 private:
  PickFn pick_;
};

TEST(DriverHeld, RevealReleasesHeldSubjobsAndReportsEachExhaustionOnce) {
  // Six independent subjobs, 2..5 held; m = 2.
  ReverseLogger logger;
  SimDriver driver(2, logger);
  driver.submit(Job(MakeParallelBlob(6), 0), 2);

  // Slot 1: only the shown subjobs are ready.  Reverse order runs 1
  // then 0, so 0 is the subjob that empties the ready set.
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_EQ(logger.seen().back(), (std::vector<NodeId>{0, 1}));
  ASSERT_EQ(driver.exhausted().size(), 1u);
  EXPECT_EQ(driver.exhausted()[0], (SubjobRef{0, 0}));
  EXPECT_TRUE(driver.take_finished().empty());

  // Revealed subjobs are ready at the next pick, in increasing id; the
  // one still held is not.
  driver.reveal(0, 2, 3);
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_EQ(logger.seen().back(), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_TRUE(driver.exhausted().empty());
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_EQ(logger.seen().back(), (std::vector<NodeId>{2}));
  ASSERT_EQ(driver.exhausted().size(), 1u);
  EXPECT_EQ(driver.exhausted()[0], (SubjobRef{0, 2}));

  // Nothing is ready until the next reveal, and the exhaustion is not
  // reported again.
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_TRUE(logger.seen().back().empty());
  EXPECT_TRUE(driver.exhausted().empty());
  EXPECT_FALSE(driver.idle());

  driver.reveal(0, 5, 1);
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_EQ(logger.seen().back(), (std::vector<NodeId>{5}));
  EXPECT_TRUE(driver.exhausted().empty());
  const std::vector<SimDriver::FinishedJob> finished = driver.take_finished();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].last, 5);
  EXPECT_EQ(finished[0].finish, 5);
  EXPECT_TRUE(driver.idle());
  const SimResult result = driver.drain();
  EXPECT_EQ(result.flows.flow[0], 5);
  // The held subjob was never ready before its reveal.
  for (std::size_t slot = 0; slot + 1 < logger.seen().size(); ++slot) {
    const std::vector<NodeId>& seen = logger.seen()[slot];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 5), 0) << slot + 1;
  }
}

TEST(DriverHeldDeath, PickingAHeldSubjobAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ScriptedScheduler cheat([](const SchedulerView&,
                             std::vector<SubjobRef>& out) {
    out.push_back({0, 2});
  });
  SimDriver driver(2, cheat);
  driver.submit(Job(MakeParallelBlob(4), 0), 2);
  EXPECT_DEATH(driver.advance(1), "is not ready");
}

TEST(DriverHeldDeath, RevealOutsideTheHeldRangeAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ReverseLogger logger;
  SimDriver driver(2, logger);
  driver.submit(Job(MakeParallelBlob(6), 0), 2);
  driver.submit(Job(MakeParallelBlob(6), 4), 2);
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_DEATH(driver.reveal(0, 0, 1), "the first held subjob is 2");
  EXPECT_DEATH(driver.reveal(0, 3, 1), "the first held subjob is 2");
  EXPECT_DEATH(driver.reveal(0, 2, 5), "with 6 subjobs");
  EXPECT_DEATH(driver.reveal(2, 2, 1), "unknown job 2");
  EXPECT_DEATH(driver.reveal(1, 2, 1), "before its arrival");
}

TEST(DriverHeldDeath, HoldsAreRefusedUnderJobFaults) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  SimOptions job_faulted = FlowOnlyOptions();
  job_faulted.job_faults.model = JobFaultModel::kRandomCrash;
  job_faulted.job_faults.seed = 11;
  job_faulted.job_faults.rate = 0.2;
  FifoScheduler fifo;
  SimDriver driver(2, fifo, job_faulted);
  EXPECT_DEATH(driver.submit(Job(MakeParallelBlob(6), 0), 2),
               "held subjobs cannot run under job faults");
  driver.submit(Job(MakeParallelBlob(6), 0));
  ASSERT_EQ(driver.advance(1), 1);
  EXPECT_DEATH(driver.reveal(0, 2, 1), "reveal under job faults");
}

}  // namespace
}  // namespace otsched
