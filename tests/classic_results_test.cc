// The classical results the paper builds on, verified in this codebase:
//
//  * Graham 1969: any work-conserving (list) schedule of ONE job finishes
//    within W/m + P (so it is 2-competitive for makespan);
//  * Hu 1961 (via the related-work discussion): longest-path-first is
//    optimal for IN-forests too — checked against brute-force OPT;
//  * Bender et al. / Ambühl–Mastrolilli: FIFO on chains (sequential
//    jobs) is (3 - 2/m)-competitive — spot-checked in fifo_test.cc, here
//    property-swept;
//  * the span-reduction property from the introduction: when a
//    work-conserving schedule idles a processor, every alive job's
//    remaining span drops that slot.
#include <gtest/gtest.h>

#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/validate.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "opt/brute_force.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sim/validator.h"

namespace otsched {
namespace {

class GrahamBoundTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GrahamBoundTest, WorkConservingSingleJobWithinWOverMPlusSpan) {
  const auto [m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 5261 + m);
  const Dag tree = MakeTree(static_cast<TreeFamily>(seed % 4), 150, rng);
  const auto metrics = ComputeMetrics(tree);
  Instance instance;
  instance.add_job(Job(Dag(tree), 0));

  ListGreedyScheduler greedy(static_cast<std::uint64_t>(seed));
  FifoScheduler fifo;
  for (Scheduler* scheduler : {static_cast<Scheduler*>(&greedy),
                               static_cast<Scheduler*>(&fifo)}) {
    const SimResult result = Simulate(instance, m, *scheduler);
    EXPECT_LE(result.flows.max_flow, metrics.work / m + metrics.span)
        << scheduler->name() << " m=" << m << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GrahamBoundTest,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(HuInForests, LpfMatchesBruteForceOnInForests) {
  // Reverse random out-forests into in-forests; LPF (our implementation
  // works on any DAG) must equal the exhaustive optimum.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Dag out_forest = MakeRandomForest(11, 2, 0.5, rng);
    const Dag in_forest = ReverseDag(out_forest);
    Instance instance;
    instance.add_job(Job(Dag(in_forest), 0));
    for (int m : {1, 2, 3}) {
      const Time exact = BruteForceOpt(instance, m);
      const Time lpf = BuildLpfSchedule(in_forest, m).horizon();
      EXPECT_EQ(lpf, exact) << "seed " << seed << " m " << m;
    }
  }
}

TEST(ReverseDagUtility, InvolutionAndDegreeSwap) {
  Rng rng(9);
  const Dag tree = MakeTree(TreeFamily::kBranchy, 60, rng);
  const Dag reversed = ReverseDag(tree);
  EXPECT_EQ(reversed.edge_count(), tree.edge_count());
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    EXPECT_EQ(reversed.in_degree(v), tree.out_degree(v));
    EXPECT_EQ(reversed.out_degree(v), tree.in_degree(v));
  }
  const Dag twice = ReverseDag(reversed);
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    std::vector<NodeId> a(tree.children(v).begin(), tree.children(v).end());
    std::vector<NodeId> b(twice.children(v).begin(),
                          twice.children(v).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

class FifoChainsTest : public ::testing::TestWithParam<int> {};

TEST_P(FifoChainsTest, ThreeMinusTwoOverMOnRandomChainInstances) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 31337);
  Instance instance;
  std::int64_t budget = 16;  // keep brute force tractable
  Time release = 0;
  while (budget > 0) {
    const auto len = std::min<std::int64_t>(
        budget, 1 + static_cast<std::int64_t>(rng.next_below(5)));
    instance.add_job(Job(MakeChain(static_cast<NodeId>(len)), release));
    budget -= len;
    release += static_cast<Time>(rng.next_below(3));
  }
  for (int m : {2, 3}) {
    const Time opt = BruteForceOpt(instance, m);
    FifoScheduler fifo;
    const SimResult result = Simulate(instance, m, fifo);
    EXPECT_LE(static_cast<double>(result.flows.max_flow),
              (3.0 - 2.0 / m) * static_cast<double>(opt) + 1e-9)
        << "seed " << seed << " m " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoChainsTest, ::testing::Range(1, 11));

TEST(SpanReduction, IdleSlotsReduceEveryAliveJobsRemainingSpan) {
  // The introduction's "span reduction property": if a work-conserving
  // scheduler idles a processor at slot t, every unfinished (arrived)
  // job had ALL its ready subjobs scheduled, so its remaining critical
  // path shortens by one.  We instrument FIFO and check remaining span
  // (max height over unexecuted ready nodes) drops across idle slots.
  Rng rng(4);
  Instance instance = MakePoissonArrivals(
      8, 0.1,
      [](std::int64_t, Rng& r) { return MakeTree(TreeFamily::kMixed, 30, r); },
      rng);
  const int m = 3;

  class Probe : public Scheduler {
   public:
    std::string name() const override { return "span-probe"; }
    bool requires_clairvoyance() const override { return true; }
    void pick(const SchedulerView& view,
              std::vector<SubjobRef>& out) override {
      // Record each alive job's remaining span before the slot.
      std::vector<std::pair<JobId, std::int32_t>> spans;
      std::int64_t total_ready = 0;
      for (JobId job : view.alive()) {
        std::int32_t span = 0;
        const auto& height = view.metrics(job).height;
        for (NodeId v : view.ready(job)) {
          span = std::max(span, height[static_cast<std::size_t>(v)]);
        }
        spans.emplace_back(job, span);
        total_ready += static_cast<std::int64_t>(view.ready(job).size());
      }
      // FIFO picks.
      fifo_.pick(view, out);
      // Idle slot: fewer picks than machines.
      if (!out.empty() && static_cast<int>(out.size()) < view.m()) {
        EXPECT_EQ(static_cast<std::int64_t>(out.size()), total_ready);
        // Every ready subjob of every alive job runs, so each alive
        // job's remaining span strictly drops (its current critical-path
        // head executes).
        for (const auto& [job, span] : spans) {
          if (span == 0) continue;
          std::int64_t picked_of_job = 0;
          for (const SubjobRef& ref : out) {
            if (ref.job == job) ++picked_of_job;
          }
          EXPECT_EQ(picked_of_job,
                    static_cast<std::int64_t>(view.ready(job).size()))
              << "job " << job;
          ++verified_;
        }
      }
    }
    std::int64_t verified() const { return verified_; }

   private:
    FifoScheduler fifo_;
    std::int64_t verified_ = 0;
  } probe;

  const SimResult result = Simulate(instance, m, probe);
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_GT(probe.verified(), 0);
}

}  // namespace
}  // namespace otsched
