// Tests for core/lpf.h: Lemma 5.3 / Corollary 5.4 optimality, the
// alpha-competitiveness of LPF[m/alpha], and the Lemma 5.2 / Figure 2
// head/tail shape.
#include <gtest/gtest.h>

#include "common/fnv.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/validate.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "opt/brute_force.h"
#include "opt/single_batch.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(Lpf, ChainTakesSpanSlots) {
  const Schedule s = BuildLpfSchedule(MakeChain(6), 3);
  EXPECT_EQ(s.horizon(), 6);
  EXPECT_EQ(s.total_placed(), 6);
  EXPECT_TRUE(ValidateSingleJob(s, MakeChain(6)));
}

TEST(Lpf, BlobPacksDensely) {
  const Schedule s = BuildLpfSchedule(MakeParallelBlob(10), 4);
  EXPECT_EQ(s.horizon(), 3);  // 4 + 4 + 2
  EXPECT_EQ(s.load(1), 4);
  EXPECT_EQ(s.load(2), 4);
  EXPECT_EQ(s.load(3), 2);
}

TEST(Lpf, EmptyDag) {
  const Schedule s = BuildLpfSchedule(Dag(), 2);
  EXPECT_EQ(s.horizon(), 0);
  EXPECT_TRUE(s.idle_slots(1, s.horizon()).empty());
}

TEST(Lpf, PrioritizesTallerSubtrees) {
  // Root with two children: one leaf, one chain of 3.  On p=1, after the
  // root LPF must follow the chain before the leaf.
  Dag::Builder builder(5);
  builder.add_edge(0, 1);        // leaf child
  builder.add_edge(0, 2);        // chain child
  builder.add_edge(2, 3);
  builder.add_edge(3, 4);
  const Dag tree = std::move(builder).build();
  const Schedule s = BuildLpfSchedule(tree, 1);
  ASSERT_EQ(s.horizon(), 5);
  EXPECT_EQ(s.at(2).front().node, 2);
  EXPECT_EQ(s.at(3).front().node, 3);
  EXPECT_EQ(s.at(4).front().node, 4);
  EXPECT_EQ(s.at(5).front().node, 1);  // the shallow leaf goes last
}

TEST(Lpf, SchedulerChecksCatchBrokenSchedules) {
  const Dag chain = MakeChain(3);
  Schedule broken(1);  // the chain's LPF schedule in reverse order
  for (NodeId v : {2, 1, 0}) broken.place(3 - v, SubjobRef{0, v});
  EXPECT_FALSE(ValidateSingleJob(broken, chain));
}

// ---- Golden packings: LPF's pick order, slot by slot ----

// FNV-1a over every slot's node list in placement order, with a
// separator after each slot, so any change to which nodes share a slot
// or to their order within it changes the hash.
std::uint64_t PackingHash(const Dag& dag, int p) {
  const Schedule s = BuildLpfSchedule(dag, p);
  std::uint64_t h = kFnvOffset;
  for (Time t = 1; t <= s.horizon(); ++t) {
    for (const SubjobRef& ref : s.at(t)) {
      h = Fnv1a(h, static_cast<std::uint64_t>(ref.node));
    }
    h = Fnv1a(h, ~std::uint64_t{0});
  }
  return h;
}

Dag GoldenDag(int index) {
  Rng rng(static_cast<std::uint64_t>(index) + 2024);
  switch (index) {
    case 0:
    case 1:
    case 2:
    case 3:  // the four `gen trees` families
      return MakeTree(static_cast<TreeFamily>(index), 60, rng);
    case 4: {  // `gen quicksort` shape
      QuicksortOptions q;
      q.n = 640;
      q.grain = q.n / 32;
      q.cutoff = q.grain;
      return MakeQuicksortTree(q, rng);
    }
    case 5:
      return MakeChain(9);
    case 6:
      return MakeStar(11);
    default:  // about one planner batch of a run-stream instance
      return MakeAttachmentTree(54, 0.5, rng);
  }
}

TEST(Lpf, GoldenPackings) {
  constexpr int kBudgets[] = {1, 2, 3, 5, 8};
  constexpr std::uint64_t kGolden[8][5] = {
      {0x2fbe76cb9dd70a85ull, 0xd9ed3d3338d5c41dull, 0x0aeea82fa603daedull,
       0xad5a647b8c1fe7adull, 0xdcff8b7260419d3dull},
      {0xa2c119deaced4ac5ull, 0x2be362b448871acdull, 0x6352dc30281c2fcdull,
       0xeaa394606da74bc5ull, 0x281c43b5b9c24295ull},
      {0xed6e84743f0d5345ull, 0x118198c7d025ef6dull, 0x903f2c4ff49fd65dull,
       0xf6feffa07d8465fdull, 0xf6feffa07d8465fdull},
      {0xe2de77244f268e95ull, 0x474db85d63e24e65ull, 0x1c717d8289cb9575ull,
       0x3abd57c705e5ba1dull, 0xdfed5ebbb936673dull},
      {0x69c8bc83411888e5ull, 0xf94cc74faee11ec5ull, 0x920895e7e8cf5d4dull,
       0x7970997f737795e5ull, 0xfcce67d28b33620dull},
      {0x3c9473a914f8e4a5ull, 0x3c9473a914f8e4a5ull, 0x3c9473a914f8e4a5ull,
       0x3c9473a914f8e4a5ull, 0x3c9473a914f8e4a5ull},
      {0x305ade919236d3a5ull, 0x6ad6e49b875ec7edull, 0x2fcd6762f5c8080dull,
       0x25174c30146d1785ull, 0x205a160aaadf89edull},
      {0x554b29f1b6b9fbf4ull, 0x0252e38ec4d59f54ull, 0x6ecc5a440c30023cull,
       0xfa75be59f435231cull, 0xb856f3bd580fd1ecull},
  };
  for (int d = 0; d < 8; ++d) {
    const Dag dag = GoldenDag(d);
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(PackingHash(dag, kBudgets[k]), kGolden[d][k])
          << "dag " << d << " p " << kBudgets[k] << std::hex
          << " hash 0x" << PackingHash(dag, kBudgets[k]);
    }
  }
}

// ---- Lemma 5.3 / Corollary 5.4: LPF optimality sweep ----

struct LpfCase {
  TreeFamily family;
  int size;
  int m;
  std::uint64_t seed;
};

class LpfOptimalityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LpfOptimalityTest, MatchesCorollary54OnFullMachine) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000003 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 120, rng);
  ASSERT_TRUE(IsOutTree(tree));

  const Time opt = SingleBatchOpt(tree, m);
  const Schedule s = BuildLpfSchedule(tree, m);
  EXPECT_TRUE(ValidateSingleJob(s, tree));
  // Lemma 5.3: LPF on the full machine achieves exactly OPT.
  EXPECT_EQ(s.horizon(), opt)
      << ToString(family) << " m=" << m << " seed=" << seed;
}

TEST_P(LpfOptimalityTest, AlphaCompetitiveOnReducedMachine) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 200, rng);

  // When alpha does not divide m the algorithm rounds the budget UP to
  // ceil(m/alpha) >= m/alpha processors, which only shortens the schedule,
  // so the alpha-competitiveness bound survives unchanged.
  const Time opt = SingleBatchOpt(tree, m);
  const Schedule s = BuildLpfSchedule(tree, (m + 3) / 4);
  EXPECT_TRUE(ValidateSingleJob(s, tree));
  EXPECT_LE(s.horizon(), 4 * opt);
}

TEST_P(LpfOptimalityTest, Lemma52ChainStructureHolds) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 150, rng);

  const int p = std::max(1, m / 4);
  const Schedule s = BuildLpfSchedule(tree, p);
  const Lemma52Report report = CheckLemma52(tree, s);
  EXPECT_TRUE(report.holds) << report.detail;
  if (report.last_underfull != kNoTime) {
    // Lemma 5.2 forces the last underfull slot to be at most the max
    // depth, hence at most OPT on the full machine.
    EXPECT_LE(report.last_underfull, SingleBatchOpt(tree, m));
  }
}

TEST_P(LpfOptimalityTest, HeadTailRectangle) {
  const auto [family_index, m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 271 + m);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 240, rng);

  // p = ceil(m/alpha) generalizes the alpha | m case: Lemma 5.2 bounds the
  // last underfull slot by the max depth <= OPT for ANY budget, and with
  // p >= m/alpha the packed tail still fits in (alpha - 1) * OPT slots.
  const Time opt = SingleBatchOpt(tree, m);
  const Schedule s = BuildLpfSchedule(tree, (m + 3) / 4);
  const HeadTailShape shape = AnalyzeHeadTail(s, opt);
  // Figure 2: the tail is a fully packed rectangle (no underfull slot
  // strictly inside it) of length at most (alpha - 1) * OPT.
  EXPECT_TRUE(shape.underfull_tail_slots.empty());
  EXPECT_LE(shape.tail_len, 3 * opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LpfOptimalityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // TreeFamily
                       ::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 3)));

TEST(Lpf, MatchesBruteForceOnTinyForests) {
  // Corollary 5.4 == true OPT, certified by exhaustive search.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Dag forest = MakeRandomForest(12, 3, 0.5, rng);
    Instance instance;
    instance.add_job(Job(Dag(forest), 0));
    for (int m : {1, 2, 3}) {
      EXPECT_EQ(SingleBatchOpt(forest, m), BruteForceOpt(instance, m))
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Lpf, OutForestInputSupported) {
  Rng rng(5);
  const Dag forest = MakeRandomForest(60, 4, 0.3, rng);
  const Time opt = SingleBatchOpt(forest, 4);
  const Schedule s = BuildLpfSchedule(forest, 4);
  EXPECT_EQ(s.horizon(), opt);
}

// ---- GlobalLpfScheduler ----

TEST(GlobalLpf, FeasibleOnMixedInstance) {
  Rng rng(17);
  Instance instance;
  for (int i = 0; i < 6; ++i) {
    instance.add_job(Job(MakeTree(TreeFamily::kMixed, 40, rng), i * 3));
  }
  GlobalLpfScheduler scheduler;
  const SimResult result = Simulate(instance, 4, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << report.violation;
}

TEST(GlobalLpf, SingleJobMatchesBuildLpfLength) {
  Rng rng(23);
  const Dag tree = MakeTree(TreeFamily::kBranchy, 90, rng);
  Instance instance;
  instance.add_job(Job(Dag(tree), 0));
  GlobalLpfScheduler scheduler;
  const SimResult result = Simulate(instance, 3, scheduler);
  EXPECT_EQ(result.flows.max_flow, BuildLpfSchedule(tree, 3).horizon());
}

}  // namespace
}  // namespace otsched
