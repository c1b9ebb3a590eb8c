// The golden gate for the incremental engine rewrite: every (instance,
// policy, m) case must produce a Schedule BIT-IDENTICAL to the seed
// engine's (ReferenceSimulate, the pre-incremental implementation kept
// verbatim in sim/engine_reference.cc) — same slots, same subjobs in the
// same order within each slot — plus identical flow summaries and stats.
//
// The corpus covers the shapes the fuzz harness generates (general
// Poisson tree mixes, certified saturated and pipelined semi-batched
// streams, the Section 4 adversary) across machine sizes, each run under
// every applicable registry policy, plus a serialization round-trip leg
// standing in for on-disk fuzz repros.  Only once this gate has soaked
// may engine_reference.cc be deleted.
#include "gtest_compat.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/rng.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/fifo_adversary.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "sched/registry.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/trace.h"
#include "same_run.h"
#include "slot_event_recorder.h"

namespace otsched {
namespace {

/// Runs every applicable registry policy on (instance, m) through both
/// engine paths and requires identical results.  `known_opt` is the
/// corpus's certified OPT (0 = none).
void CheckAllPolicies(const Instance& instance, int m, Time known_opt,
                      const std::string& corpus_label) {
  for (const PolicySpec& spec : AllPolicies()) {
    if (SkipCase(spec, instance, m, known_opt)) continue;
    std::ostringstream label;
    label << corpus_label << " / " << spec.name << " / m=" << m;
    // Fresh schedulers with the SAME seed: randomized tie-breakers must
    // follow identical trajectories for the comparison to be meaningful.
    const std::uint64_t seed = 12345;
    auto incremental_scheduler = spec.make(seed, known_opt);
    auto reference_scheduler = spec.make(seed, known_opt);
    const SimResult incremental =
        Simulate(instance, m, *incremental_scheduler);
    const SimResult reference =
        ReferenceSimulate(instance, m, *reference_scheduler);
    ExpectSameRun(incremental, reference, label.str());

    // Observer leg: attaching sinks must not perturb the run (the same
    // bit-identical schedule), the streamed trace must equal DeriveTrace,
    // and both engines must deliver identical event streams.
    auto observed_scheduler = spec.make(seed, known_opt);
    SlotEventRecorder recorder;
    EventTrace streamed;
    StreamingTraceObserver tracer(streamed);
    ObserverList observers;
    observers.add(&recorder);
    observers.add(&tracer);
    RunContext context;
    context.observer = &observers;
    const SimResult observed =
        Simulate(instance, m, *observed_scheduler, context);
    ExpectSameRun(observed, incremental, label.str() + " [observed]");
    EXPECT_EQ(FirstDivergence(streamed,
                              DeriveTrace(observed.full_schedule(), instance)),
              -1)
        << label.str() << " [streamed trace]";

    auto reference_observed_scheduler = spec.make(seed, known_opt);
    SlotEventRecorder reference_recorder;
    RunContext reference_context;
    reference_context.observer = &reference_recorder;
    ReferenceSimulate(instance, m, *reference_observed_scheduler,
                      reference_context);
    EXPECT_EQ(FirstEventDivergence(recorder.stream(),
                                   reference_recorder.stream()),
              -1)
        << label.str() << " [event stream]";
  }
}

/// The flow-only gate: for every applicable registry policy, a
/// RecordMode::kFlowOnly run — on either engine, with or without
/// observers — must produce a FlowSummary and SimStats bit-identical to
/// the full-mode run's, which in turn must match the schedule-derived
/// ComputeFlows (the pre-refactor definition of the numbers).
void CheckFlowOnlyAllPolicies(const Instance& instance, int m, Time known_opt,
                              const std::string& corpus_label) {
  for (const PolicySpec& spec : AllPolicies()) {
    if (SkipCase(spec, instance, m, known_opt)) continue;
    const std::uint64_t seed = 12345;
    const auto make = [&] { return spec.make(seed, known_opt); };
    std::ostringstream label_stream;
    label_stream << corpus_label << " / " << spec.name << " / m=" << m;
    const std::string label = label_stream.str();

    // Full-mode baseline; its online flows must equal the derived ones.
    auto full_scheduler = make();
    const SimResult full = Simulate(instance, m, *full_scheduler);
    ASSERT_TRUE(full.has_schedule()) << label;
    const FlowSummary derived = ComputeFlows(full.full_schedule(), instance);
    EXPECT_EQ(full.flows.completion, derived.completion) << label;
    EXPECT_EQ(full.flows.flow, derived.flow) << label;
    EXPECT_EQ(full.flows.max_flow, derived.max_flow) << label;
    EXPECT_EQ(full.flows.max_flow_job, derived.max_flow_job) << label;
    EXPECT_EQ(full.flows.all_completed, derived.all_completed) << label;

    // Flow-only on the incremental engine.
    auto flow_scheduler = make();
    const SimResult flow_only =
        Simulate(instance, m, *flow_scheduler, FlowOnlyOptions());
    EXPECT_FALSE(flow_only.has_schedule()) << label;
    ExpectSameRun(flow_only, full, label + " [flow-only]");

    // Flow-only on the reference engine.
    auto reference_scheduler = make();
    const SimResult reference = ReferenceSimulate(
        instance, m, *reference_scheduler, FlowOnlyOptions());
    EXPECT_FALSE(reference.has_schedule()) << label;
    ExpectSameRun(reference, full, label + " [flow-only ref]");

    // Flow-only with observers attached: the stream still carries the
    // full event trace even though no schedule is materialized, and the
    // run itself is unperturbed.
    auto observed_scheduler = make();
    SlotEventRecorder recorder;
    EventTrace streamed;
    StreamingTraceObserver tracer(streamed);
    ObserverList observers;
    observers.add(&recorder);
    observers.add(&tracer);
    RunContext context{FlowOnlyOptions(), &observers};
    const SimResult observed =
        Simulate(instance, m, *observed_scheduler, context);
    EXPECT_FALSE(observed.has_schedule()) << label;
    ExpectSameRun(observed, full, label + " [flow-only observed]");
    EXPECT_EQ(FirstDivergence(streamed,
                              DeriveTrace(full.full_schedule(), instance)),
              -1)
        << label << " [flow-only streamed trace]";
  }
}

/// The faulted gate: under a fluctuating per-slot budget, for every
/// applicable capacity-aware policy and every fault model in `specs`,
/// both engines — with and without observers — must produce bit-identical
/// schedules, flows, stats (including the fault counters) and event
/// streams (which now carry kCapacityChange records).
void CheckFaultedAllPolicies(const Instance& instance, int m,
                             std::span<const FaultSpec> specs,
                             const std::string& corpus_label) {
  for (const PolicySpec& spec : AllPolicies()) {
    if (SkipCase(spec, instance, m, /*known_opt=*/0)) continue;
    // Skip window planners: they replan against fixed m and opt out of
    // fluctuating capacity (the engines CHECK this).
    if (!spec.make(1)->supports_fluctuating_capacity()) continue;
    for (const FaultSpec& faults : specs) {
      std::ostringstream label;
      label << corpus_label << " / " << spec.name << " / m=" << m << " / "
            << ToString(faults);
      const std::uint64_t seed = 12345;
      SimOptions options;
      options.faults = faults;

      auto incremental_scheduler = spec.make(seed);
      const SimResult incremental =
          Simulate(instance, m, *incremental_scheduler, options);
      auto reference_scheduler = spec.make(seed);
      const SimResult reference =
          ReferenceSimulate(instance, m, *reference_scheduler, options);
      ExpectSameRun(incremental, reference, label.str());
      // An active model at these rates must actually bite somewhere —
      // otherwise this gate silently degenerates to the fault-free one.
      EXPECT_GT(incremental.stats.faulted_slots, 0) << label.str();

      // Observer legs on both engines: identical runs and identical event
      // streams, kCapacityChange records included.
      auto observed_scheduler = spec.make(seed);
      SlotEventRecorder recorder;
      RunContext context{options, &recorder};
      const SimResult observed =
          Simulate(instance, m, *observed_scheduler, context);
      ExpectSameRun(observed, incremental,
                          label.str() + " [observed]");
      auto reference_observed_scheduler = spec.make(seed);
      SlotEventRecorder reference_recorder;
      RunContext reference_context{options, &reference_recorder};
      ReferenceSimulate(instance, m, *reference_observed_scheduler,
                        reference_context);
      const std::vector<SlotEvent> stream = recorder.stream();
      EXPECT_EQ(FirstEventDivergence(stream, reference_recorder.stream()),
                -1)
          << label.str() << " [event stream]";
      EXPECT_TRUE(std::any_of(stream.begin(), stream.end(),
                              [](const SlotEvent& event) {
                                return event.kind ==
                                       SlotEvent::Kind::kCapacityChange;
                              }))
          << label.str() << " [no kCapacityChange record]";
    }
  }
}

/// The job-fault gate: under an active crash model, for every applicable
/// policy the engines can run (RunSupportError), both engines must
/// produce identical flows, stats (rollback/waste/checkpoint counters
/// included) and event streams, kRollback and kCheckpoint records
/// included.
int CheckJobFaultedAllPolicies(const Instance& instance, int m,
                               std::span<const JobFaultSpec> specs,
                               const std::string& corpus_label) {
  int legs = 0;
  for (const PolicySpec& spec : AllPolicies()) {
    if (SkipCase(spec, instance, m, /*known_opt=*/0)) continue;
    for (const JobFaultSpec& job_faults : specs) {
      SimOptions options = FlowOnlyOptions();
      options.job_faults = job_faults;
      if (!RunSupportError(*spec.make(1), options).empty()) continue;
      ++legs;
      std::ostringstream label;
      label << corpus_label << " / " << spec.name << " / m=" << m << " / "
            << ToString(job_faults);
      const std::uint64_t seed = 12345;

      auto scheduler = spec.make(seed);
      SlotEventRecorder recorder;
      const SimResult run =
          Simulate(instance, m, *scheduler, RunContext{options, &recorder});
      auto reference_scheduler = spec.make(seed);
      SlotEventRecorder reference_recorder;
      const SimResult reference =
          ReferenceSimulate(instance, m, *reference_scheduler,
                            RunContext{options, &reference_recorder});
      ExpectSameRun(run, reference, label.str());
      // The crash model must bite, or this degenerates to the healthy gate.
      EXPECT_GT(run.stats.job_rollbacks, 0) << label.str();

      const std::vector<SlotEvent> stream = recorder.stream();
      EXPECT_EQ(FirstEventDivergence(stream, reference_recorder.stream()),
                -1)
          << label.str() << " [event stream]";
      for (const SlotEvent::Kind kind :
           {SlotEvent::Kind::kRollback, SlotEvent::Kind::kCheckpoint}) {
        EXPECT_TRUE(std::any_of(stream.begin(), stream.end(),
                                [kind](const SlotEvent& event) {
                                  return event.kind == kind;
                                }))
            << label.str() << " [no record of kind "
            << static_cast<int>(kind) << "]";
      }
    }
  }
  return legs;
}

TEST(EngineEquivalence, JobFaultedPoissonTreeMixes) {
  Rng rng(29);
  Instance instance = MakePoissonArrivals(
      6, 0.2,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(8 + r.next_below(20)), r);
      },
      rng);

  JobFaultSpec random_crash;
  random_crash.model = JobFaultModel::kRandomCrash;
  random_crash.seed = 3;
  random_crash.rate = 0.2;
  random_crash.checkpoint = CheckpointPolicy::kEveryKSlots;
  random_crash.checkpoint_every = 3;
  JobFaultSpec periodic = random_crash;
  periodic.model = JobFaultModel::kPeriodicCrash;
  periodic.period = 5;
  const std::vector<JobFaultSpec> specs = {random_crash, periodic};
  for (int m : {2, 4}) {
    // Several list policies run under job faults at every m.
    EXPECT_GE(
        CheckJobFaultedAllPolicies(instance, m, specs, "job-faulted-poisson"),
        6)
        << "m=" << m;
  }
}

TEST(EngineEquivalence, FaultedPoissonTreeMixes) {
  Rng rng(13);
  Instance instance = MakePoissonArrivals(
      6, 0.2,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(5 + r.next_below(20)), r);
      },
      rng);

  FaultSpec blip;
  blip.model = FaultModel::kRandomBlip;
  blip.seed = 5;
  blip.rate = 0.4;
  FaultSpec burst;
  burst.model = FaultModel::kBurstOutage;
  burst.seed = 9;
  burst.rate = 0.5;
  burst.burst_len = 3;
  FaultSpec dip;
  dip.model = FaultModel::kAdversarialDip;
  BudgetTrace trace;
  for (Time slot = 2; slot <= 120; slot += 5) {
    trace.set(slot, static_cast<int>(slot % 3));
  }
  FaultSpec traced;
  traced.model = FaultModel::kTrace;
  traced.trace = &trace;

  const std::vector<FaultSpec> specs = {blip, burst, dip, traced};
  for (int m : {2, 4}) {
    CheckFaultedAllPolicies(instance, m, specs, "faulted-poisson");
  }
}

TEST(EngineEquivalence, FaultedAdversaryAndCertified) {
  FaultSpec blip;
  blip.model = FaultModel::kRandomBlip;
  blip.seed = 21;
  blip.rate = 0.35;
  FaultSpec burst;
  burst.model = FaultModel::kBurstOutage;
  burst.seed = 4;
  burst.rate = 0.6;
  burst.burst_len = 2;
  burst.floor = 1;
  const std::vector<FaultSpec> specs = {blip, burst};

  LowerBoundSimOptions options;
  options.m = 4;
  options.num_jobs = 8;
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  CheckFaultedAllPolicies(adv.instance, 4, specs, "faulted-adversary");

  Rng rng(42);
  CertifiedInstance cert = MakeSpacedSaturatedInstance(4, 3, 3, rng);
  CheckFaultedAllPolicies(cert.instance, 4, specs, "faulted-saturated");
}

/// Large sparse workload (many alive chain jobs, one ready subjob each):
/// the shape where flow-only recording pays off, mirroring the
/// BM_EngineSparse* microbenchmarks.
Instance MakeSparseChains(int jobs, NodeId chain_len) {
  Instance instance;
  instance.set_name("sparse-chains-" + std::to_string(jobs));
  for (int j = 0; j < jobs; ++j) {
    instance.add_job(Job(MakeChain(chain_len), 0));
  }
  return instance;
}

TEST(EngineEquivalence, FlowOnlySparse512) {
  const Instance instance = MakeSparseChains(512, 32);
  CheckFlowOnlyAllPolicies(instance, 8, /*known_opt=*/0, "sparse-512");
}

TEST(EngineEquivalence, FlowOnlySparse2048) {
  const Instance instance = MakeSparseChains(2048, 16);
  CheckFlowOnlyAllPolicies(instance, 8, /*known_opt=*/0, "sparse-2048");
}

TEST(EngineEquivalence, FlowOnlyCorpusShapes) {
  // The small corpus shapes too, so semi-batched and adversarial paths
  // get flow-only coverage (sparse chains never certify semi-batched).
  Rng rng(7);
  Instance poisson = MakePoissonArrivals(
      6, 0.2,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(5 + r.next_below(20)), r);
      },
      rng);
  for (int m : {1, 3}) {
    CheckFlowOnlyAllPolicies(poisson, m, /*known_opt=*/0,
                             "flowonly-poisson");
  }
  Rng cert_rng(42);
  CertifiedInstance cert = MakePipelinedSemiBatchedInstance(4, 2, 3, cert_rng);
  CheckFlowOnlyAllPolicies(cert.instance, 4, cert.opt, "flowonly-pipelined");
}

TEST(EngineEquivalence, GeneralPoissonTreeMixes) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    Rng rng(seed);
    Instance instance = MakePoissonArrivals(
        6, 0.2,
        [](std::int64_t i, Rng& r) {
          return MakeTree(static_cast<TreeFamily>(i % 4),
                          static_cast<NodeId>(5 + r.next_below(20)), r);
        },
        rng);
    // The same jobs in reverse id order: releases fall as ids rise.
    const Instance reversed(
        std::vector<Job>(instance.jobs().rbegin(), instance.jobs().rend()));
    for (int m : {1, 2, 3, 8}) {
      std::ostringstream label;
      label << "poisson-seed" << seed;
      CheckAllPolicies(instance, m, /*known_opt=*/0, label.str());
      CheckAllPolicies(reversed, m, /*known_opt=*/0,
                       label.str() + "-reversed");
    }
  }
}

TEST(EngineEquivalence, CertifiedSaturatedBatches) {
  for (int m : {4, 8}) {
    Rng rng(42);
    CertifiedInstance cert = MakeSpacedSaturatedInstance(m, 3, 4, rng);
    std::ostringstream label;
    label << "saturated-m" << m;
    // No known-opt: the pipelined leg below covers the semi-batched
    // scheduler.
    CheckAllPolicies(cert.instance, m, /*known_opt=*/0, label.str());
  }
}

TEST(EngineEquivalence, CertifiedPipelinedSemiBatched) {
  // m % 4 == 0 makes the semi-batched Algorithm A applicable, so this leg
  // covers the window-planning scheduler too.
  for (int m : {4, 8}) {
    Rng rng(42);
    CertifiedInstance cert = MakePipelinedSemiBatchedInstance(m, 2, 3, rng);
    std::ostringstream label;
    label << "pipelined-m" << m;
    CheckAllPolicies(cert.instance, m, cert.opt, label.str());
  }
}

TEST(EngineEquivalence, Section4Adversary) {
  LowerBoundSimOptions options;
  options.m = 4;
  options.num_jobs = 12;
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  for (int m : {1, 4}) {
    CheckAllPolicies(adv.instance, m, /*known_opt=*/0, "sec4-adversary");
  }
}

TEST(EngineEquivalence, SerializedCorpusRoundTrip) {
  // Repro files are text; replaying them must hit the same engine path
  // equivalence.  The round trip also pins serialization stability.
  Rng rng(99);
  Instance original = MakePoissonArrivals(
      4, 0.25,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(6 + r.next_below(10)), r);
      },
      rng);
  std::string error;
  const std::optional<Instance> replayed =
      TryInstanceFromText(InstanceToText(original), &error);
  ASSERT_TRUE(replayed.has_value()) << error;
  ASSERT_EQ(replayed->job_count(), original.job_count());
  for (int m : {2, 3}) {
    CheckAllPolicies(*replayed, m, /*known_opt=*/0, "serialized-roundtrip");
  }
}

}  // namespace
}  // namespace otsched
