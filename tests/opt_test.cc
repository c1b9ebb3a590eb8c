// Tests for src/opt: lower bounds (Lemma 5.1 and friends), Corollary 5.4,
// and the brute-force exact solver they are checked against.
#include "gtest_compat.h"

#include <limits>
#include <set>

#include "dag/builders.h"
#include "gen/random_trees.h"
#include "opt/brute_force.h"
#include "opt/lower_bounds.h"
#include "opt/single_batch.h"

namespace otsched {
namespace {

Instance SingleJob(Dag dag, Time release = 0) {
  Instance instance;
  instance.add_job(Job(std::move(dag), release));
  return instance;
}

TEST(LowerBounds, ChainIsSpanBound) {
  const Instance instance = SingleJob(MakeChain(7));
  const LowerBounds bounds = ComputeLowerBounds(instance, 3);
  EXPECT_EQ(bounds.span_bound, 7);
  EXPECT_EQ(bounds.work_bound, 3);  // ceil(7/3)
  EXPECT_EQ(bounds.best(), 7);
}

TEST(LowerBounds, BlobIsWorkBound) {
  const Instance instance = SingleJob(MakeParallelBlob(10));
  const LowerBounds bounds = ComputeLowerBounds(instance, 4);
  EXPECT_EQ(bounds.span_bound, 1);
  EXPECT_EQ(bounds.work_bound, 3);
  EXPECT_EQ(bounds.best(), 3);
}

TEST(LowerBounds, DepthProfileBeatsBothOnMixedShape) {
  // Chain of 3 whose last node fans out to 6 leaves: depth-profile bound
  // at d=3 gives 3 + ceil(6/2) = 6 > span (4) and > work (ceil(9/2)=5).
  Dag::Builder builder(9);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  for (NodeId leaf = 3; leaf < 9; ++leaf) builder.add_edge(2, leaf);
  const Instance instance = SingleJob(std::move(builder).build());
  const LowerBounds bounds = ComputeLowerBounds(instance, 2);
  EXPECT_EQ(bounds.span_bound, 4);
  EXPECT_EQ(bounds.work_bound, 5);
  EXPECT_EQ(bounds.depth_profile_bound, 6);
  EXPECT_EQ(bounds.best(), 6);
}

TEST(LowerBounds, IntervalBoundSeesBursts) {
  // Two size-8 blobs released together on m=2: interval bound =
  // ceil(16/2) = 8.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(8), 5));
  instance.add_job(Job(MakeParallelBlob(8), 5));
  const LowerBounds bounds = ComputeLowerBounds(instance, 2);
  EXPECT_EQ(bounds.interval_bound, 8);
}

TEST(LowerBounds, IntervalBoundAcrossReleases) {
  // Work 6 at t=0 and work 6 at t=2 on m=2: window [0,2] holds 12 work,
  // bound = ceil(12/2) - 2 = 4.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(6), 0));
  instance.add_job(Job(MakeParallelBlob(6), 2));
  const LowerBounds bounds = ComputeLowerBounds(instance, 2);
  EXPECT_EQ(bounds.interval_bound, 4);
}

TEST(LowerBounds, DepthIntervalBeatsEveryOtherBound) {
  // Two jobs released together on m = 4, each a 4-chain whose last node
  // fans out to 6 leaves (work 10, W(4) = 6, span 5).
  //   span = 5; work = ceil(10/4) = 3; per-job Lemma 5.1 = 4+ceil(6/4) = 6;
  //   interval (d=0) = ceil(20/4) = 5;
  //   depth x interval at d=4 over both jobs: 4 + ceil(12/4) = 7.
  auto make_job = [] {
    Dag::Builder builder(10);
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    builder.add_edge(2, 3);
    for (NodeId leaf = 4; leaf < 10; ++leaf) builder.add_edge(3, leaf);
    return std::move(builder).build();
  };
  Instance instance;
  instance.add_job(Job(make_job(), 0));
  instance.add_job(Job(make_job(), 0));

  const LowerBounds bounds = ComputeLowerBounds(instance, 4);
  EXPECT_EQ(bounds.span_bound, 5);
  EXPECT_EQ(bounds.work_bound, 3);
  EXPECT_EQ(bounds.depth_profile_bound, 6);
  EXPECT_EQ(bounds.interval_bound, 5);
  EXPECT_EQ(bounds.depth_interval_bound, 7);
  EXPECT_EQ(bounds.best(), 7);
  // Soundness: still below the exhaustive optimum.
  EXPECT_LE(bounds.best(), BruteForceOpt(instance, 4));
}

TEST(LowerBounds, DepthIntervalGeneralizesTheOthers) {
  // Single job: reduces to Lemma 5.1.  d = 0: reduces to the interval
  // bound.  Check both degenerations on random instances.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 613);
    Instance instance;
    instance.add_job(Job(MakeAttachmentTree(24, 0.6, rng), 0));
    const LowerBounds bounds = ComputeLowerBounds(instance, 3);
    EXPECT_GE(bounds.depth_interval_bound, bounds.depth_profile_bound);
    EXPECT_GE(bounds.depth_interval_bound, bounds.interval_bound);
  }
}

// ---- best() attribution: golden winners and pinned tie-breaks ----

TEST(LowerBoundsBest, GoldenWinnerPerComponent) {
  // One instance per component where that component is the simplest
  // explanation of best().  (The general components always TIE the
  // winner — the depth x interval bound dominates all others — so
  // attribution goes to the first component in priority order that
  // reaches the max, never "whichever general bound also got there".)
  EXPECT_EQ(ComputeLowerBounds(SingleJob(MakeChain(7)), 3).best_component(),
            BoundComponent::kSpan);
  EXPECT_EQ(
      ComputeLowerBounds(SingleJob(MakeParallelBlob(10)), 4).best_component(),
      BoundComponent::kWork);
  {
    // Work 6 at t=0 and work 6 at t=2 on m=2 (IntervalBoundAcrossReleases):
    // interval = 4 > span 1, work 3.
    Instance instance;
    instance.add_job(Job(MakeParallelBlob(6), 0));
    instance.add_job(Job(MakeParallelBlob(6), 2));
    EXPECT_EQ(ComputeLowerBounds(instance, 2).best_component(),
              BoundComponent::kInterval);
  }
  {
    // DepthProfileBeatsBothOnMixedShape's instance: Lemma 5.1 gives 6 >
    // span 4, work 5, interval 5 — the depth profile is the simplest
    // winner (depth x interval merely ties it).
    Dag::Builder builder(9);
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    for (NodeId leaf = 3; leaf < 9; ++leaf) builder.add_edge(2, leaf);
    const LowerBounds bounds =
        ComputeLowerBounds(SingleJob(std::move(builder).build()), 2);
    EXPECT_EQ(bounds.depth_profile_bound, bounds.depth_interval_bound);
    EXPECT_EQ(bounds.best_component(), BoundComponent::kDepthProfile);
  }
  {
    // DepthIntervalBeatsEveryOtherBound's instance: only the combined
    // bound reaches 7, so attribution falls through to it.
    auto make_job = [] {
      Dag::Builder builder(10);
      builder.add_edge(0, 1);
      builder.add_edge(1, 2);
      builder.add_edge(2, 3);
      for (NodeId leaf = 4; leaf < 10; ++leaf) builder.add_edge(3, leaf);
      return std::move(builder).build();
    };
    Instance instance;
    instance.add_job(Job(make_job(), 0));
    instance.add_job(Job(make_job(), 0));
    EXPECT_EQ(ComputeLowerBounds(instance, 4).best_component(),
              BoundComponent::kDepthInterval);
  }
}

TEST(LowerBoundsBest, TieOnAllEqualGoesToSpan) {
  // Single unit job: every component equals 1; the documented priority
  // order (span > work > interval > depth_profile > depth_interval)
  // attributes the five-way tie to the span.
  const LowerBounds bounds = ComputeLowerBounds(SingleJob(MakeChain(1)), 1);
  EXPECT_EQ(bounds.span_bound, 1);
  EXPECT_EQ(bounds.work_bound, 1);
  EXPECT_EQ(bounds.depth_profile_bound, 1);
  EXPECT_EQ(bounds.interval_bound, 1);
  EXPECT_EQ(bounds.depth_interval_bound, 1);
  EXPECT_EQ(bounds.best_component(), BoundComponent::kSpan);
}

TEST(LowerBoundsBest, WorkBeatsIntervalOnTies) {
  // Blob on m=2: work == interval == depth profile == depth interval
  // == 5 > span 1; the tie goes to work, the simplest of the four.
  const LowerBounds bounds =
      ComputeLowerBounds(SingleJob(MakeParallelBlob(10)), 2);
  EXPECT_EQ(bounds.span_bound, 1);
  EXPECT_EQ(bounds.work_bound, 5);
  EXPECT_EQ(bounds.interval_bound, 5);
  EXPECT_EQ(bounds.best_component(), BoundComponent::kWork);
}

TEST(LowerBoundsBest, ComponentNamesAreStable) {
  EXPECT_STREQ(ToString(BoundComponent::kDepthInterval), "depth-interval");
  EXPECT_STREQ(ToString(BoundComponent::kDepthProfile), "depth-profile");
  EXPECT_STREQ(ToString(BoundComponent::kInterval), "interval");
  EXPECT_STREQ(ToString(BoundComponent::kWork), "work");
  EXPECT_STREQ(ToString(BoundComponent::kSpan), "span");
}

TEST(LowerBoundsBest, AttributionAlwaysMatchesBestValue) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    Instance instance;
    instance.add_job(Job(MakeAttachmentTree(12, 0.5, rng), 0));
    instance.add_job(
        Job(MakeAttachmentTree(8, 0.3, rng), rng.next_in_range(0, 3)));
    for (int m : {1, 2, 4}) {
      const LowerBounds bounds = ComputeLowerBounds(instance, m);
      const Time best = bounds.best();
      // The winner reaches best() and no higher-priority (simpler)
      // component does.
      switch (bounds.best_component()) {
        case BoundComponent::kSpan:
          EXPECT_EQ(bounds.span_bound, best);
          break;
        case BoundComponent::kWork:
          EXPECT_EQ(bounds.work_bound, best);
          EXPECT_LT(bounds.span_bound, best);
          break;
        case BoundComponent::kInterval:
          EXPECT_EQ(bounds.interval_bound, best);
          EXPECT_LT(bounds.span_bound, best);
          EXPECT_LT(bounds.work_bound, best);
          break;
        case BoundComponent::kDepthProfile:
          EXPECT_EQ(bounds.depth_profile_bound, best);
          EXPECT_LT(bounds.span_bound, best);
          EXPECT_LT(bounds.work_bound, best);
          EXPECT_LT(bounds.interval_bound, best);
          break;
        case BoundComponent::kDepthInterval:
          EXPECT_EQ(bounds.depth_interval_bound, best);
          EXPECT_LT(bounds.depth_profile_bound, best);
          break;
      }
    }
  }
}

/// The five components straight from their definitions: every pair of
/// distinct releases a <= b and every depth d sums W(d) over the jobs
/// released in [a, b], with no shared enumeration or running profile.
LowerBounds DefinitionLowerBounds(const Instance& instance, int m) {
  LowerBounds bounds;
  std::set<Time> releases;
  for (const Job& job : instance.jobs()) {
    releases.insert(job.release());
    bounds.span_bound = std::max<Time>(bounds.span_bound, job.span());
    bounds.work_bound =
        std::max<Time>(bounds.work_bound, (job.work() + m - 1) / m);
    for (Time d = 0; d <= job.span(); ++d) {
      bounds.depth_profile_bound = std::max<Time>(
          bounds.depth_profile_bound,
          d + (job.metrics().w_deeper(d) + m - 1) / m);
    }
  }
  for (const Time a : releases) {
    for (const Time b : releases) {
      if (b < a) continue;
      for (Time d = 0; d <= instance.max_span(); ++d) {
        std::int64_t w = 0;
        for (const Job& job : instance.jobs()) {
          if (job.release() >= a && job.release() <= b) {
            w += job.metrics().w_deeper(d);
          }
        }
        if (w == 0) continue;
        const Time bound = d + (w + m - 1) / m - (b - a);
        if (d == 0) {
          bounds.interval_bound = std::max(bounds.interval_bound, bound);
        }
        bounds.depth_interval_bound =
            std::max(bounds.depth_interval_bound, bound);
      }
    }
  }
  return bounds;
}

TEST(LowerBounds, EveryComponentMatchesItsDefinition) {
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 104729 + 17);
    Instance instance;
    const int jobs = 1 + static_cast<int>(rng.next_below(6));
    // Odd seeds draw releases from a small range, so most instances
    // share some; even seeds spread them up to 40, so window width and
    // the wrap-around of the work's residue mod m both matter.
    const Time max_release = seed % 2 == 1
                                 ? static_cast<Time>(rng.next_below(6))
                                 : static_cast<Time>(rng.next_in_range(8, 40));
    for (int j = 0; j < jobs; ++j) {
      const auto size = static_cast<NodeId>(rng.next_in_range(1, 12));
      Dag dag = rng.next_below(2) == 0
                    ? MakeAttachmentTree(size, 0.5, rng)
                    : MakeRandomForest(size, size >= 2 ? 2 : 1, 0.4, rng);
      instance.add_job(
          Job(std::move(dag), rng.next_in_range(0, max_release)));
    }
    // INT_MAX pins that no state is sized by m.
    for (int m : {1, 2, 3, 5, 8, 64, std::numeric_limits<int>::max()}) {
      const LowerBounds got = ComputeLowerBounds(instance, m);
      const LowerBounds want = DefinitionLowerBounds(instance, m);
      ASSERT_EQ(got.span_bound, want.span_bound) << "seed " << seed;
      ASSERT_EQ(got.work_bound, want.work_bound) << "seed " << seed;
      ASSERT_EQ(got.depth_profile_bound, want.depth_profile_bound)
          << "seed " << seed;
      ASSERT_EQ(got.interval_bound, want.interval_bound) << "seed " << seed;
      ASSERT_EQ(got.depth_interval_bound, want.depth_interval_bound)
          << "seed " << seed << " m " << m;
      ++cases;
    }
  }
  EXPECT_GE(cases, 1400);
}

TEST(LowerBoundsDeath, DiagnosesNonPositiveMachineCount) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const Instance instance = SingleJob(MakeChain(3));
  EXPECT_DEATH(ComputeLowerBounds(instance, 0),
               "lower bounds need a machine: m >= 1, got 0");
  EXPECT_DEATH(ComputeLowerBounds(instance, -2),
               "lower bounds need a machine: m >= 1, got -2");
  EXPECT_DEATH(DepthProfileBound(instance.job(0), 0),
               "lower bounds need a machine: m >= 1, got 0");
}

TEST(Corollary54, HandComputedExamples) {
  // Star(4) on m=2: max(d + ceil(W(d)/m)) = max(ceil(5/2), 1+2, 2+0) = 3.
  EXPECT_EQ(SingleBatchOpt(MakeStar(4), 2), 3);
  // Chain: OPT = n regardless of m.
  EXPECT_EQ(SingleBatchOpt(MakeChain(5), 8), 5);
  // Blob: OPT = ceil(n/m).
  EXPECT_EQ(SingleBatchOpt(MakeParallelBlob(9), 4), 3);
  // Complete binary tree, 3 levels (7 nodes), m=2:
  // d=0: 4, d=1: 1+3=4, d=2: 2+2=4, d=3: 3 -> OPT=4.
  EXPECT_EQ(SingleBatchOpt(MakeCompleteTree(2, 3), 2), 4);
}

TEST(Corollary54Death, RejectsGeneralDags) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(SingleBatchOpt(MakeForkJoin(2), 2), "out-forest");
}

TEST(BruteForce, HandExamples) {
  EXPECT_EQ(BruteForceOpt(SingleJob(MakeChain(4)), 2), 4);
  EXPECT_EQ(BruteForceOpt(SingleJob(MakeParallelBlob(6)), 2), 3);
  EXPECT_EQ(BruteForceOpt(SingleJob(MakeStar(4)), 2), 3);
  EXPECT_EQ(BruteForceOpt(Instance(), 3), 0);
}

TEST(BruteForce, RespectsReleases) {
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(4), 0));
  instance.add_job(Job(MakeParallelBlob(4), 1));
  // m=2: at best, job 1 finishes at 2 (flow 2); job 2 at 4 (flow 3)?
  // Window [0,1] holds 8 work -> bound ceil(8/2)-1 = 3.
  EXPECT_EQ(BruteForceOpt(instance, 2), 3);
}

TEST(BruteForce, FeasibleDecisionMonotone) {
  const Instance instance = SingleJob(MakeCompleteTree(2, 3));
  const Time opt = BruteForceOpt(instance, 2);
  EXPECT_FALSE(BruteForceFeasible(instance, 2, opt - 1));
  EXPECT_TRUE(BruteForceFeasible(instance, 2, opt));
  EXPECT_TRUE(BruteForceFeasible(instance, 2, opt + 3));
}

TEST(BruteForce, GeneralDagDiamond) {
  // Fork-join on 1 processor: all 5 nodes sequential = 5.
  EXPECT_EQ(BruteForceOpt(SingleJob(MakeForkJoin(3)), 1), 5);
  // On 3 processors: source, 3 parallel, sink = 3 slots.
  EXPECT_EQ(BruteForceOpt(SingleJob(MakeForkJoin(3)), 3), 3);
}

// ---- Properties: LB <= OPT <= certified constructions ----

class BoundsVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoundsVsBruteForceTest, LowerBoundsNeverExceedTrueOpt) {
  const auto [m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + m);
  // Tiny multi-job instances with scattered releases.
  Instance instance;
  const int jobs = 1 + static_cast<int>(rng.next_below(3));
  std::int64_t budget = 14;
  for (int j = 0; j < jobs; ++j) {
    const auto size = static_cast<NodeId>(
        rng.next_in_range(1, std::min<std::int64_t>(6, budget)));
    budget -= size;
    instance.add_job(Job(MakeAttachmentTree(size, 0.5, rng),
                         rng.next_in_range(0, 4)));
    if (budget <= 0) break;
  }
  const Time opt = BruteForceOpt(instance, m);
  const Time lb = MaxFlowLowerBound(instance, m);
  EXPECT_LE(lb, opt) << "lower bound exceeded true OPT";
  EXPECT_GE(lb, 1);
}

TEST_P(BoundsVsBruteForceTest, Corollary54EqualsTrueOptOnForests) {
  const auto [m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 40503 + m);
  const Dag forest = MakeRandomForest(11, 2, 0.4, rng);
  const Time formula = SingleBatchOpt(forest, m);
  const Time exact = BruteForceOpt(SingleJob(Dag(forest)), m);
  EXPECT_EQ(formula, exact);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundsVsBruteForceTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 3, 4, 5,
                                                              6, 7, 8)));

TEST(BruteForceDeath, RefusesOversizedInstances) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(BruteForceOpt(SingleJob(MakeParallelBlob(100)), 2),
               "too large");
}

}  // namespace
}  // namespace otsched
