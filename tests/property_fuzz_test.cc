// Randomized property and fuzz tests across module boundaries:
//  * the validator detects random corruptions of known-good schedules,
//  * the adversary co-simulation matches a hand-derived golden trace,
//  * LPF's value is invariant to tie-breaking (node relabelling),
//  * the src/check oracles agree with the validator and hold on every
//    generated tree family (the differential harness's ground truth).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "check/oracles.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/metrics.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "lbsim/lbsim.h"
#include "opt/single_batch.h"
#include "sched/fifo.h"
#include "sim/engine.h"
#include "sim/validator.h"

namespace otsched {
namespace {

Instance RandomInstance(std::uint64_t seed, int jobs) {
  Rng rng(seed);
  return MakePoissonArrivals(
      jobs, 0.2,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(5 + r.next_below(40)), r);
      },
      rng);
}

// Rebuilds a schedule in slot order (Schedule is append-only) with one
// mutation applied: every placement of `drop` is left out, and `copies`
// placements of `extra` are appended to slot `extra_slot`.
Schedule CopySchedule(const Schedule& source, int m,
                      SubjobRef drop = {-1, -1}, Time extra_slot = 0,
                      SubjobRef extra = {-1, -1}, int copies = 0) {
  Schedule copy(m);
  const auto add_extra = [&](Time t) {
    if (t == extra_slot) {
      for (int k = 0; k < copies; ++k) copy.place(t, extra);
    }
  };
  for (Time t = 1; t <= source.horizon(); ++t) {
    for (const SubjobRef& ref : source.at(t)) {
      if (!(ref == drop)) copy.place(t, ref);
    }
    add_extra(t);
  }
  if (extra_slot > source.horizon()) add_extra(extra_slot);
  return copy;
}

class ValidatorFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorFuzzTest, DetectsRandomCorruptions) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7717);
  const Instance instance = RandomInstance(static_cast<std::uint64_t>(seed),
                                           6);
  const int m = 3;
  FifoScheduler fifo;
  const SimResult good = Simulate(instance, m, fifo);
  ASSERT_TRUE(ValidateSchedule(good.full_schedule(), instance).feasible);

  for (int trial = 0; trial < 24; ++trial) {
    const int mutation = trial % 4;
    // Pick a random occupied slot and a random entry within it.
    const Time t = rng.next_in_range(1, good.full_schedule().horizon());
    const auto slot = good.full_schedule().at(t);
    if (slot.empty()) continue;
    const SubjobRef victim =
        slot[static_cast<std::size_t>(rng.next_below(slot.size()))];

    const Schedule& source = good.full_schedule();
    std::optional<Schedule> bad;
    bool expect_violation = true;
    switch (mutation) {
      case 0:  // duplicate a subjob in a later slot
        bad = CopySchedule(source, m, {-1, -1}, source.horizon() + 1, victim,
                           1);
        break;
      case 1: {  // swap: move a subjob one slot before its actual slot
        if (t == 1) {
          expect_violation = false;  // cannot move before slot 1
          break;
        }
        // Rebuild without the victim, placing it earlier.  Moving a
        // subjob earlier violates precedence when its parent ran at
        // t-1, or release when t-1 <= r; either way the FULL axiom set
        // may still pass if the node was independent — so rebuild by
        // moving it before its parent explicitly when it has one.
        const Dag& dag = instance.job(victim.job).dag();
        if (dag.parents(victim.node).empty()) {
          // Root: move to the release slot itself (axiom 4) when that is
          // a legal slot index; otherwise leave it out (axiom 2).
          const Time release = instance.job(victim.job).release();
          bad = CopySchedule(source, m, victim, release, victim,
                             release >= 1 ? 1 : 0);
        } else {
          // Place in the same slot as its (first) parent.
          const NodeId parent = dag.parents(victim.node)[0];
          Time parent_slot = kNoTime;
          for (Time u = 1; u <= source.horizon(); ++u) {
            for (const SubjobRef& ref : source.at(u)) {
              if (ref.job == victim.job && ref.node == parent) {
                parent_slot = u;
              }
            }
          }
          ASSERT_NE(parent_slot, kNoTime);
          bad = CopySchedule(source, m, victim, parent_slot, victim, 1);
        }
        break;
      }
      case 2:  // drop a subjob entirely
        bad = CopySchedule(source, m, victim);
        break;
      case 3:  // overload a slot beyond m with a fresh duplicate
        bad = CopySchedule(source, m, {-1, -1}, t, victim, m + 1);
        break;
    }
    if (!expect_violation) continue;
    EXPECT_FALSE(ValidateSchedule(*bad, instance).feasible)
        << "mutation " << mutation << " at slot " << t << " undetected";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorFuzzTest,
                         ::testing::Range(1, 9));

TEST(GoldenAdversary, HandDerivedSmallTrace) {
  // m = 2, one job, 2 layers.  Hand derivation:
  //   slot 1: layer 1 fresh, avail 2 -> size 3, run 2 non-keys.
  //   slot 2: key of layer 1 runs (1 proc).
  //   slot 3: layer 2 fresh, avail 2 -> size 3, run 2.
  //   slot 4: key of layer 2 runs -> done; completion 4, flow 4.
  LowerBoundSimOptions options;
  options.m = 2;
  options.num_jobs = 1;
  const LowerBoundSimResult result = RunLowerBoundSim(options);
  EXPECT_EQ(result.layer_sizes[0], (std::vector<int>{3, 3}));
  EXPECT_EQ(result.completion[0], 4);
  EXPECT_EQ(result.max_flow, 4);
  EXPECT_EQ(result.certified_opt_upper, 3);
}

TEST(GoldenAdversary, TwoJobsInterleave) {
  // m = 2, gap 3, 2 jobs of 2 layers.  Job 0: slots 1-4 as above.  Job 1
  // arrives at slot 4 (release 3):
  //   slot 4: job0 key (1 proc) + job1 layer-1 fresh with avail 1 ->
  //           size 2, run 1.
  //   slot 5: job1 key layer 1.
  //   slot 6: job1 layer 2 fresh, avail 2 -> size 3, run 2.
  //   slot 7: job1 key layer 2 -> done; flow = 7 - 3 = 4.
  LowerBoundSimOptions options;
  options.m = 2;
  options.num_jobs = 2;
  const LowerBoundSimResult result = RunLowerBoundSim(options);
  EXPECT_EQ(result.layer_sizes[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(result.completion[1], 7);
  EXPECT_EQ(result.flow[1], 4);
}

TEST(LpfInvariance, ValueIsStableUnderRelabelling) {
  // LPF's achieved length on an out-forest equals OPT regardless of node
  // id order; verify by relabelling nodes randomly and re-running.
  Rng rng(77);
  const Dag tree = MakeTree(TreeFamily::kMixed, 80, rng);
  const Time baseline = BuildLpfSchedule(tree, 4).horizon();
  EXPECT_EQ(baseline, SingleBatchOpt(tree, 4));

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<NodeId> relabel(static_cast<std::size_t>(tree.node_count()));
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      relabel[static_cast<std::size_t>(v)] = v;
    }
    rng.shuffle(relabel);
    Dag::Builder builder(tree.node_count());
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      for (NodeId c : tree.children(v)) {
        builder.add_edge(relabel[static_cast<std::size_t>(v)],
                         relabel[static_cast<std::size_t>(c)]);
      }
    }
    const Dag shuffled = std::move(builder).build();
    EXPECT_EQ(BuildLpfSchedule(shuffled, 4).horizon(), baseline)
        << "trial " << trial;
  }
}

TEST(OracleProperty, FeasibilityOracleAgreesWithValidator) {
  // The feasibility oracle wraps ValidateSchedule; on random schedules —
  // good and corrupted alike — the two verdicts must coincide whenever
  // every job completes (the oracle additionally rejects stalls).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = RandomInstance(seed, 5);
    const int m = 2;
    FifoScheduler fifo;
    const SimResult run = Simulate(instance, m, fifo);
    ASSERT_TRUE(run.flows.all_completed);
    EXPECT_TRUE(CheckFeasibilityOracle(run.full_schedule(), instance));

    // Corrupt: duplicate the first placed subjob into a fresh slot.
    Schedule bad = CopySchedule(run.full_schedule(), m);
    bad.place(run.full_schedule().horizon() + 1, run.full_schedule().at(1).front());
    EXPECT_EQ(static_cast<bool>(CheckFeasibilityOracle(bad, instance)),
              ValidateSchedule(bad, instance).feasible);
    EXPECT_FALSE(CheckFeasibilityOracle(bad, instance));
  }
}

TEST(OracleProperty, SingleJobOraclesHoldOnEveryFamily) {
  // Corollary 5.4, Lemma 5.2 and Lemma 5.5 as properties: they must hold
  // for every tree family x machine size the generator can emit — this is
  // the ground truth the mutation tests in check_oracle_test.cc perturb.
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    Rng rng(seed);
    for (int family = 0; family < 4; ++family) {
      const Dag tree =
          MakeTree(static_cast<TreeFamily>(family),
                   static_cast<NodeId>(4 + rng.next_below(28)), rng);
      for (int m : {1, 2, 3, 4, 8}) {
        for (const OracleResult& r :
             CheckSingleJobOracles(tree, m, 4, tree.node_count() <= 16)) {
          EXPECT_TRUE(r.ok)
              << "family " << family << " m " << m << " seed " << seed
              << ": " << ToString(r.id) << ": " << r.detail;
        }
      }
    }
  }
}

TEST(EngineFuzz, FifoAlwaysFeasibleAcrossSeeds) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const Instance instance = RandomInstance(seed, 9);
    for (int m : {1, 2, 5}) {
      FifoScheduler::Options options;
      options.tie_break = FifoTieBreak::kRandom;
      options.seed = seed;
      FifoScheduler fifo(std::move(options));
      const SimResult result = Simulate(instance, m, fifo);
      const auto report = ValidateSchedule(result.full_schedule(), instance);
      ASSERT_TRUE(report.feasible)
          << "seed " << seed << " m " << m << ": " << report.violation;
      ASSERT_TRUE(result.flows.all_completed);
    }
  }
}

}  // namespace
}  // namespace otsched
