// Tests for sim/faults.h: the BudgetTrace CSV format and its
// diagnostics, the FaultSpec shorthand parser, the counter-based
// determinism contract of the stochastic models, trace materialization,
// and — the acceptance gate — the Lemma 5.5 no-waste oracle
// (kMCNoWasteUnderFaults) over >= 1000 fuzzed budget traces.
#include "gtest_compat.h"

#include <algorithm>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "common/rng.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "gen/random_trees.h"
#include "opt/flow_network.h"
#include "opt/single_batch.h"
#include "sim/faults.h"

namespace otsched {
namespace {

// ---- BudgetTrace CSV ----

TEST(BudgetTrace, CsvRoundTripPreservesEveryEntry) {
  BudgetTrace trace;
  trace.set(1, 0);
  trace.set(4, 2);
  trace.set(9, 1);
  const std::string csv = trace.to_csv();
  std::string error;
  const std::optional<BudgetTrace> back =
      BudgetTrace::try_from_csv(csv, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->entry_count(), 3u);
  EXPECT_EQ(back->entry(0), (std::pair<Time, int>{1, 0}));
  EXPECT_EQ(back->entry(1), (std::pair<Time, int>{4, 2}));
  EXPECT_EQ(back->entry(2), (std::pair<Time, int>{9, 1}));
  EXPECT_EQ(back->to_csv(), csv);
}

TEST(BudgetTrace, CsvSkipsCommentsBlanksAndHeader) {
  std::string error;
  const std::optional<BudgetTrace> trace = BudgetTrace::try_from_csv(
      "# an outage plan\n\nslot,capacity\n3,1\n\n# recovery below\n7,0\n",
      &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->entry_count(), 2u);
  EXPECT_EQ(trace->length(), 7);
}

TEST(BudgetTrace, CsvDiagnosticsNameTheOffendingLine) {
  std::string error;
  EXPECT_FALSE(BudgetTrace::try_from_csv("3,1\nnot-a-row\n", &error)
                   .has_value());
  EXPECT_NE(error.find("budget csv line 2"), std::string::npos) << error;

  EXPECT_FALSE(BudgetTrace::try_from_csv("5,2\n5,1\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("strictly after"), std::string::npos) << error;

  EXPECT_FALSE(BudgetTrace::try_from_csv("0,1\n", &error).has_value());
  EXPECT_NE(error.find("want integer >= 1"), std::string::npos) << error;

  EXPECT_FALSE(BudgetTrace::try_from_csv("2,-1\n", &error).has_value());
  EXPECT_NE(error.find("capacity"), std::string::npos) << error;

  EXPECT_FALSE(BudgetTrace::try_from_csv("2,1,9\n", &error).has_value());
  EXPECT_NE(error.find("trailing field"), std::string::npos) << error;
}

TEST(BudgetTrace, UnpinnedSlotsRunAtFullCapacityAndPinsClampToM) {
  BudgetTrace trace;
  trace.set(2, 0);
  trace.set(5, 99);  // Pinned above m: clamps down to m at query time.
  EXPECT_EQ(trace.capacity_at(1, 4), 4);  // Gap before the first pin.
  EXPECT_EQ(trace.capacity_at(2, 4), 0);
  EXPECT_EQ(trace.capacity_at(3, 4), 4);  // Gap between pins.
  EXPECT_EQ(trace.capacity_at(5, 4), 4);
  EXPECT_EQ(trace.capacity_at(1000, 4), 4);  // Beyond the trace: recovered.
}

// ---- FaultSpec shorthand ----

TEST(FaultSpec, ParsesShorthandFields) {
  std::string error;
  const std::optional<FaultSpec> spec =
      ParseFaultSpec("random-blip:7:0.3", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->model, FaultModel::kRandomBlip);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->rate, 0.3);
  EXPECT_TRUE(spec->active());

  const std::optional<FaultSpec> bare = ParseFaultSpec("none", &error);
  ASSERT_TRUE(bare.has_value());
  EXPECT_FALSE(bare->active());

  // adversarial-dip's third field is the floor, not a rate.
  const std::optional<FaultSpec> dip =
      ParseFaultSpec("adversarial-dip:3:1", &error);
  ASSERT_TRUE(dip.has_value()) << error;
  EXPECT_EQ(dip->model, FaultModel::kAdversarialDip);
  EXPECT_EQ(dip->floor, 1);
}

TEST(FaultSpec, RejectsMalformedShorthand) {
  std::string error;
  EXPECT_FALSE(ParseFaultSpec("meteor-strike", &error).has_value());
  EXPECT_NE(error.find("unknown fault model"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("trace", &error).has_value());
  EXPECT_NE(error.find("CSV file"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("random-blip:1:0.95", &error).has_value());
  EXPECT_NE(error.find("[0, 0.9]"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("random-blip:1:nan", &error).has_value());
  EXPECT_NE(error.find("[0, 0.9]"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("none:1:0.5", &error).has_value());
  EXPECT_NE(error.find("takes no rate"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("random-blip:x", &error).has_value());
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  EXPECT_FALSE(ParseFaultSpec("burst-outage:1:0.2:16", &error).has_value());
  EXPECT_NE(error.find("too many"), std::string::npos) << error;
}

TEST(FaultSpec, ToStringMatchesManifestShorthand) {
  FaultSpec blip;
  blip.model = FaultModel::kRandomBlip;
  blip.seed = 9;
  blip.rate = 0.5;
  EXPECT_EQ(ToString(blip), "random-blip:9:0.5");
  EXPECT_EQ(ToString(FaultSpec{}), "none");

  BudgetTrace trace;
  trace.set(3, 1);
  trace.set(8, 0);
  FaultSpec traced;
  traced.model = FaultModel::kTrace;
  traced.trace = &trace;
  EXPECT_EQ(ToString(traced), "trace:2 entries");
}

// ---- BudgetSequencer determinism ----

TEST(BudgetSequencer, StochasticCapacityIsAPureFunctionOfSeedAndSlot) {
  for (const FaultModel model :
       {FaultModel::kRandomBlip, FaultModel::kBurstOutage}) {
    FaultSpec spec;
    spec.model = model;
    spec.seed = 42;
    spec.rate = 0.4;
    spec.burst_len = 3;
    const int m = 6;

    // Forward sweep, reverse sweep, and a fresh per-slot sequencer must
    // agree on every slot: capacity is counter-based, never visit-order
    // dependent (the contract that keeps both engines bit-identical).
    std::vector<int> forward;
    BudgetSequencer fwd(spec, m);
    for (Time slot = 1; slot <= 200; ++slot) {
      forward.push_back(fwd.capacity(slot, 0));
    }
    BudgetSequencer rev(spec, m);
    for (Time slot = 200; slot >= 1; --slot) {
      EXPECT_EQ(rev.capacity(slot, 0),
                forward[static_cast<std::size_t>(slot - 1)])
          << ToString(model) << " slot " << slot;
    }
    for (Time slot = 1; slot <= 200; slot += 17) {
      BudgetSequencer fresh(spec, m);
      EXPECT_EQ(fresh.capacity(slot, 0),
                forward[static_cast<std::size_t>(slot - 1)])
          << ToString(model) << " slot " << slot;
    }

    // A different seed must produce a different stream somewhere (sanity
    // that the seed is actually mixed in).
    FaultSpec other = spec;
    other.seed = 43;
    BudgetSequencer alt(other, m);
    bool diverged = false;
    for (Time slot = 1; slot <= 200 && !diverged; ++slot) {
      diverged = alt.capacity(slot, 0) !=
                 forward[static_cast<std::size_t>(slot - 1)];
    }
    EXPECT_TRUE(diverged) << ToString(model);
  }
}

TEST(BudgetSequencer, AdversarialDipStarvesOnlyAtNewAlivePeaks) {
  FaultSpec spec;
  spec.model = FaultModel::kAdversarialDip;
  spec.floor = 0;
  BudgetSequencer sequencer(spec, 4);
  EXPECT_EQ(sequencer.capacity(1, 1), 0);  // First peak: starve.
  EXPECT_EQ(sequencer.capacity(2, 1), 4);  // Held peak: recover.
  EXPECT_EQ(sequencer.capacity(3, 3), 0);  // New peak: starve again.
  EXPECT_EQ(sequencer.capacity(4, 2), 4);  // Below peak: full capacity.
  EXPECT_EQ(sequencer.capacity(5, 3), 4);  // Ties are not new peaks.
}

TEST(MaterializeBudgetTrace, FrozenTraceReplaysTheStochasticStream) {
  FaultSpec spec;
  spec.model = FaultModel::kBurstOutage;
  spec.seed = 11;
  spec.rate = 0.5;
  spec.burst_len = 4;
  const int m = 5;
  const Time horizon = 300;
  const BudgetTrace trace = MaterializeBudgetTrace(spec, m, horizon);
  EXPECT_GT(trace.entry_count(), 0u);  // rate 0.5 over 75 windows: outages.

  FaultSpec traced;
  traced.model = FaultModel::kTrace;
  traced.trace = &trace;
  BudgetSequencer original(spec, m);
  BudgetSequencer frozen(traced, m);
  for (Time slot = 1; slot <= horizon; ++slot) {
    EXPECT_EQ(frozen.capacity(slot, 0), original.capacity(slot, 0))
        << "slot " << slot;
  }
}

// ---- Lemma 5.5 on fuzzed budget traces (the acceptance gate) ----

/// Derives a fault spec from the case counter: cycles through every
/// model (including explicit traces frozen from a blip stream) with
/// varying rates, burst lengths and floors.
FaultSpec FuzzSpec(std::uint64_t i, BudgetTrace* trace_storage, int p) {
  FaultSpec spec;
  spec.seed = 0x9E3779B9u ^ (i * 2654435761u);
  spec.rate = 0.1 + 0.1 * static_cast<double>(i % 8);  // [0.1, 0.8]
  spec.burst_len = 1 + static_cast<Time>(i % 6);
  spec.floor = static_cast<int>(i % 3 == 0 ? 1 : 0);
  switch (i % 4) {
    case 0:
      spec.model = FaultModel::kRandomBlip;
      break;
    case 1:
      spec.model = FaultModel::kBurstOutage;
      break;
    case 2:
      spec.model = FaultModel::kAdversarialDip;
      break;
    default: {
      FaultSpec source;
      source.model = FaultModel::kRandomBlip;
      source.seed = spec.seed;
      source.rate = spec.rate;
      *trace_storage = MaterializeBudgetTrace(source, p, 512);
      spec.model = FaultModel::kTrace;
      spec.trace = trace_storage;
      break;
    }
  }
  return spec;
}

TEST(McNoWasteUnderFaults, HoldsOnOverOneThousandFuzzedBudgetTraces) {
  // Mirrors the fuzz harness's Lemma 5.5 leg: MC replays the packed tail
  // of LPF[p] (head pre-executed, Algorithm A's usage) under a fuzzed
  // budget stream with mid-run zero-capacity outages.  The lemma never
  // assumes the budget stream's shape, so every replay must verify.
  constexpr int kAlpha = 4;
  std::size_t replays = 0;
  for (std::uint64_t i = 0; replays < 1000; ++i) {
    ASSERT_LT(i, 4000u) << "tree pool exhausted before 1000 replays";
    Rng rng(1000 + i);
    const NodeId nodes = 14 + static_cast<NodeId>(i % 40);
    const Dag dag = MakeTree(static_cast<TreeFamily>(i % 4), nodes, rng);
    const int m = 4 + static_cast<int>(i % 7);
    const int p = (m + kAlpha - 1) / kAlpha;
    const JobSchedule reduced = BuildLpfSchedule(dag, p);
    const Time prefix =
        std::min<Time>(SingleBatchOpt(dag, m), reduced.length());
    if (reduced.length() <= prefix) continue;  // Job done within the head.

    BudgetTrace trace_storage;
    const FaultSpec faults = FuzzSpec(i, &trace_storage, p);
    const McReplayLog log =
        RunMostChildrenFaultLog(dag, reduced, faults, p, prefix);
    const OracleResult verdict =
        CheckMcNoWasteUnderFaultsOracle(dag, reduced, log);
    ASSERT_TRUE(verdict.ok)
        << "case " << i << " (" << ToString(faults) << ", p=" << p
        << "): " << verdict.detail;
    EXPECT_EQ(verdict.id, OracleId::kMCNoWasteUnderFaults);
    ++replays;
  }
  EXPECT_GE(replays, 1000u);
}

// ---- certified lower bounds over budget traces (kOptLowerBound) ----

TEST(BudgetTrace, CapacitySumMatchesPerSlotQueries) {
  BudgetTrace trace;
  trace.set(2, 0);
  trace.set(3, 1);
  trace.set(7, 9);  // clamps to m
  for (int m : {1, 2, 4}) {
    for (Time first = 1; first <= 9; ++first) {
      for (Time last = first - 1; last <= 10; ++last) {
        std::int64_t expected = 0;
        for (Time t = first; t <= last; ++t) {
          expected += trace.capacity_at(t, m);
        }
        EXPECT_EQ(trace.capacity_sum(first, last, m), expected)
            << "m=" << m << " [" << first << ", " << last << "]";
      }
    }
  }
  EXPECT_EQ(SlotCapacitySum(nullptr, 3, 7, 2), 10);
  // Slots 3..7 on m=2: pin 3 -> 1, pin 7 clamps to 2, rest healthy.
  EXPECT_EQ(SlotCapacitySum(&trace, 3, 7, 2), 9);
}

TEST(OptLowerBoundUnderFaults, FlowBoundChargesPerSlotCapacityExactly) {
  // A 6-unit blob on m = 2 with slots 1..3 fully stalled (m_t = 0): the
  // first usable slot is 4, so OPT >= 3 + ceil(6/2) = 6 — and the flow
  // bound must find exactly that, not the healthy ceil(6/2) = 3.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(6), 0));
  BudgetTrace stall;
  stall.set(1, 0);
  stall.set(2, 0);
  stall.set(3, 0);
  const Certificate healthy = MaxFlowCertificate(instance, 2);
  EXPECT_EQ(healthy.value, 3);
  const Certificate faulted = MaxFlowCertificate(instance, 2, &stall);
  EXPECT_EQ(faulted.value, 6);
  EXPECT_TRUE(faulted.verify(instance, &stall));
  // The witness must be rejected if replayed against the healthy
  // machine, where those slots supply 2 processors each.
  EXPECT_FALSE(faulted.verify(instance));
}

TEST(OptLowerBoundUnderFaults, MidRunStallsLengthenTheBound) {
  // Chain of 3 on m = 1 with slot 2 stalled: the chain needs three
  // usable slots with a hole at 2 -> OPT >= 4.
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  BudgetTrace stall;
  stall.set(2, 0);
  EXPECT_EQ(MaxFlowCertificate(instance, 1).value, 3);
  EXPECT_EQ(MaxFlowCertificate(instance, 1, &stall).value, 4);
}

TEST(OptLowerBoundUnderFaults, PartialCapacityCountsFractionally) {
  // 8 units on m = 4, slots 1 and 2 pinned to capacity 1: supply is
  // 1 + 1 + 4 + ... -> need slots through 4 - bound 4 vs healthy 2.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(8), 0));
  BudgetTrace degraded;
  degraded.set(1, 1);
  degraded.set(2, 1);
  EXPECT_EQ(MaxFlowCertificate(instance, 4).value, 2);
  EXPECT_EQ(MaxFlowCertificate(instance, 4, &degraded).value, 4);
}

TEST(OptLowerBoundUnderFaults, OracleSweepsFuzzedTraceStreams) {
  // kOptLowerBound over fuzzed BudgetTrace streams, including hard
  // m_t = 0 stalls and traces longer than the healthy bound.  The
  // oracle itself asserts verify(), the sandwich, and faulted >=
  // healthy monotonicity.
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 41);
    Instance instance;
    const int jobs = 1 + static_cast<int>(rng.next_below(2));
    for (int j = 0; j < jobs; ++j) {
      instance.add_job(Job(MakeAttachmentTree(
                               static_cast<NodeId>(1 + rng.next_below(8)),
                               0.5, rng),
                           rng.next_in_range(0, 3)));
    }
    const int m = 1 + static_cast<int>(rng.next_below(3));
    BudgetTrace trace;
    const Time len = rng.next_in_range(1, 14);
    for (Time slot = 1; slot <= len; ++slot) {
      const auto roll = rng.next_below(4);
      if (roll == 0) continue;                      // healthy slot
      if (roll == 1) trace.set(slot, 0);            // hard stall
      else trace.set(slot, static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(m) + 1)));
    }
    OptBoundCheckOptions options;
    options.budget = &trace;
    const OracleResult verdict =
        CheckOptLowerBoundOracle(instance, m, options);
    ASSERT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.detail;
    EXPECT_EQ(verdict.id, OracleId::kOptLowerBound);
    ++checks;
  }
  EXPECT_GE(checks, 120u);
}

TEST(OptLowerBoundUnderFaults, TotalStallNeverTerminatingTraceStillBounds) {
  // A trace that stalls every pinned slot but ends (the machine
  // recovers after it): bound = trace length + healthy bound.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(4), 0));
  BudgetTrace stall;
  for (Time slot = 1; slot <= 10; ++slot) stall.set(slot, 0);
  const Certificate cert = MaxFlowCertificate(instance, 2, &stall);
  EXPECT_EQ(cert.value, 12);
  EXPECT_TRUE(cert.verify(instance, &stall));
}

}  // namespace
}  // namespace otsched
