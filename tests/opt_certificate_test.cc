// Certified OPT lower bounds (opt/flow_network, opt/dual_fitting) and
// the kOptLowerBound oracle.
//
// The load-bearing property, fuzzed over thousands of small instances
// (out-trees, general DAGs, scattered releases, faulted budgets):
//
//   heuristic bounds <= dual-fit certificate <= max-flow certificate
//                    <= brute-force OPT
//
// (the first <= an equality on a healthy machine), with every
// certificate passing Certificate::verify() — and with
// verify() REJECTING deliberately corrupted certificates, so a passing
// sandwich can never be explained by a vacuous checker.
#include "gtest_compat.h"

#include <functional>
#include <limits>

#include "check/oracles.h"
#include "dag/builders.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "gen/series_parallel.h"
#include "job/serialize.h"
#include "opt/brute_force.h"
#include "opt/dual_fitting.h"
#include "opt/flow_network.h"
#include "opt/lower_bounds.h"
#include "opt/single_batch.h"

namespace otsched {
namespace {

Instance SingleJob(Dag dag, Time release = 0) {
  Instance instance;
  instance.add_job(Job(std::move(dag), release));
  return instance;
}

/// A small random DAG drawn from the same shape families the benches
/// use: out-trees and forests plus the general classes (fork-join,
/// series-parallel, map-reduce, parallel-for).  `size` is a soft target;
/// the hard budget is enforced by the caller.
Dag RandomSmallDag(Rng& rng, NodeId size) {
  switch (rng.next_below(6)) {
    case 0:
      return MakeAttachmentTree(size, 0.5, rng);
    case 1:
      return MakeRandomForest(size, size >= 2 ? 2 : 1, 0.4, rng);
    case 2:
      return MakeForkJoin(std::max<NodeId>(1, size - 2));
    case 3: {
      SeriesParallelOptions options;
      options.size = std::max<NodeId>(2, size);
      options.max_branches = 3;
      return MakeSeriesParallelDag(options, rng);
    }
    case 4:
      return MakeMapReducePipeline(1, std::max<NodeId>(1, size - 2), rng);
    default:
      return MakeRandomParallelForSeries(
          1 + static_cast<int>(rng.next_below(2)),
          std::max<NodeId>(1, size / 2), rng);
  }
}

/// 1-3 jobs, total work <= `node_budget`, releases in [0, max_release].
Instance RandomSmallInstance(Rng& rng, std::int64_t node_budget,
                             Time max_release) {
  Instance instance;
  const int jobs = 1 + static_cast<int>(rng.next_below(3));
  for (int j = 0; j < jobs && node_budget > 0; ++j) {
    const auto size = static_cast<NodeId>(
        rng.next_in_range(1, std::min<std::int64_t>(6, node_budget)));
    Dag dag = RandomSmallDag(rng, size);
    if (dag.node_count() > node_budget) dag = MakeChain(size);
    node_budget -= dag.node_count();
    instance.add_job(
        Job(std::move(dag), rng.next_in_range(0, max_release)));
  }
  return instance;
}

BudgetTrace RandomTrace(Rng& rng, int m, Time max_len) {
  BudgetTrace trace;
  const Time len = rng.next_in_range(1, max_len);
  for (Time slot = 1; slot <= len; ++slot) {
    if (rng.next_below(2) == 0) continue;  // unpinned: healthy slot
    trace.set(slot, static_cast<int>(rng.next_in_range(0, m)));
  }
  return trace;
}

// ---- the headline sandwich, >= 2000 fuzzed cases ----

TEST(CertificateFuzz, SandwichHoldsOnThousandsOfInstances) {
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 700; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const Time max_release = static_cast<Time>(seed % 5);  // incl. batched
    const Instance instance =
        RandomSmallInstance(rng, /*node_budget=*/12, max_release);
    for (int m : {1, 2, 3}) {
      const OracleResult verdict = CheckOptLowerBoundOracle(instance, m);
      ASSERT_TRUE(verdict.ok)
          << ToString(verdict.id) << " on m=" << m << ": " << verdict.detail
          << "\n"
          << InstanceToText(instance);
      ++cases;
    }
  }
  EXPECT_GE(cases, 2000);
}

TEST(CertificateFuzz, SandwichHoldsUnderFaultedBudgets) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(seed * 6364136223846793005ULL + 3);
    const Instance instance =
        RandomSmallInstance(rng, /*node_budget=*/10, /*max_release=*/3);
    const int m = 1 + static_cast<int>(rng.next_below(3));
    const BudgetTrace trace = RandomTrace(rng, m, /*max_len=*/12);
    OptBoundCheckOptions options;
    options.budget = &trace;
    const OracleResult verdict =
        CheckOptLowerBoundOracle(instance, m, options);
    ASSERT_TRUE(verdict.ok)
        << ToString(verdict.id) << " on m=" << m << " under trace\n"
        << trace.to_csv() << verdict.detail << "\n"
        << InstanceToText(instance);
  }
}

// ---- hand-checked certificate values ----

TEST(MaxFlowCertificate, MatchesBruteForceOnHandInstances) {
  // Chain: the span binds; witness-free certification.
  EXPECT_EQ(MaxFlowCertificate(SingleJob(MakeChain(5)), 2).value, 5);
  // Blob: the work bound binds.
  EXPECT_EQ(MaxFlowCertificate(SingleJob(MakeParallelBlob(9)), 4).value, 3);
  // Fork-join diamond on one processor: all 5 nodes sequential.
  EXPECT_EQ(MaxFlowCertificate(SingleJob(MakeForkJoin(3)), 1).value, 5);
  EXPECT_EQ(MaxFlowCertificate(SingleJob(MakeForkJoin(3)), 3).value, 3);
  // Staggered blobs: interval bound ceil(8/2) - 1 = 3 binds (and is
  // exactly OPT, cf. BruteForce.RespectsReleases).
  Instance staggered;
  staggered.add_job(Job(MakeParallelBlob(4), 0));
  staggered.add_job(Job(MakeParallelBlob(4), 1));
  EXPECT_EQ(MaxFlowCertificate(staggered, 2).value, 3);
}

TEST(MaxFlowCertificate, EmptyInstanceIsTrivial) {
  const Certificate cert = MaxFlowCertificate(Instance(), 3);
  EXPECT_EQ(cert.value, 0);
  EXPECT_EQ(cert.method, "trivial");
  EXPECT_TRUE(cert.verify(Instance()));
}

TEST(MaxFlowCertificate, CarriesAHallWitnessWhenSpanDoesNotBind) {
  // Two size-8 blobs released together on m = 2: value = ceil(16/2) = 8,
  // certified by the slot set T = [1, 7] (demand 16 > capacity 14).
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(8), 0));
  instance.add_job(Job(MakeParallelBlob(8), 0));
  const Certificate cert = MaxFlowCertificate(instance, 2);
  EXPECT_EQ(cert.value, 8);
  EXPECT_EQ(cert.method, "max-flow");
  ASSERT_EQ(cert.witness.size(), 1u);
  EXPECT_EQ(cert.witness[0].first, 1);
  EXPECT_EQ(cert.witness[0].last, 7);
  EXPECT_EQ(cert.witness[0].weight, 1);
  EXPECT_TRUE(cert.verify(instance));
}

TEST(DualFitCertificate, DominatesEveryHeuristicComponent) {
  // On a healthy machine the sweep's capacity inverse is the closed form
  // d + ceil(W / m) - (b - a) per window, so "dominates" is equality.
  // Under a budget it must still equal the window enumeration, and the
  // faulted value can only rise.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 2654435761ULL);
    const Instance instance =
        RandomSmallInstance(rng, /*node_budget=*/14, /*max_release=*/4);
    for (int m : {1, 2, 4}) {
      const Certificate dual = DualFitCertificate(instance, m);
      EXPECT_EQ(dual.value, MaxFlowLowerBound(instance, m))
          << InstanceToText(instance);
      EXPECT_EQ(dual.value, EnumeratedDualFitBound(instance, m))
          << InstanceToText(instance);
      EXPECT_TRUE(dual.verify(instance));

      const BudgetTrace trace = RandomTrace(rng, m, /*max_len=*/12);
      const Certificate faulted = DualFitCertificate(instance, m, &trace);
      EXPECT_EQ(faulted.value, EnumeratedDualFitBound(instance, m, &trace))
          << trace.to_csv() << InstanceToText(instance);
      EXPECT_GE(faulted.value, dual.value) << InstanceToText(instance);
      EXPECT_TRUE(faulted.verify(instance, &trace));
    }
  }
}

// ---- mutation injection: verify() must reject broken certificates ----

class CorruptedCertificate : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_.add_job(Job(MakeParallelBlob(8), 0));
    instance_.add_job(Job(MakeParallelBlob(8), 0));
    cert_ = MaxFlowCertificate(instance_, 2);
    ASSERT_EQ(cert_.value, 8);
    ASSERT_TRUE(cert_.verify(instance_));
  }

  Instance instance_;
  Certificate cert_;
};

TEST_F(CorruptedCertificate, RejectsInflatedValue) {
  // Claiming 9 needs a witness against flow bound 8, which is feasible;
  // the carried witness must not certify it.
  cert_.value += 1;
  std::string why;
  EXPECT_FALSE(cert_.verify(instance_, nullptr, &why));
  EXPECT_NE(why.find("does not certify"), std::string::npos) << why;
}

TEST_F(CorruptedCertificate, RejectsDroppedWitness) {
  cert_.witness.clear();
  std::string why;
  EXPECT_FALSE(cert_.verify(instance_, nullptr, &why));
  EXPECT_NE(why.find("no witness"), std::string::npos) << why;
}

TEST_F(CorruptedCertificate, RejectsShrunkenWitnessInterval) {
  cert_.witness[0].last -= 1;  // windows no longer contained in T
  EXPECT_FALSE(cert_.verify(instance_));
}

TEST_F(CorruptedCertificate, RejectsNonPositiveWeights) {
  cert_.witness[0].weight = 0;
  std::string why;
  EXPECT_FALSE(cert_.verify(instance_, nullptr, &why));
  EXPECT_NE(why.find("weight"), std::string::npos) << why;
}

TEST_F(CorruptedCertificate, RejectsOverlappingIntervals) {
  cert_.witness.push_back({cert_.witness[0].first, cert_.witness[0].last, 2});
  std::string why;
  EXPECT_FALSE(cert_.verify(instance_, nullptr, &why));
  EXPECT_NE(why.find("unsorted or overlapping"), std::string::npos) << why;
}

TEST_F(CorruptedCertificate, RejectsWrongMachineSize) {
  // The same witness on a 3-processor machine supplies 21 >= 16 slots.
  cert_.m = 3;
  EXPECT_FALSE(cert_.verify(instance_));
}

TEST_F(CorruptedCertificate, ScalingAValidWitnessStaysValid) {
  // Dual weights are scale-free: both sides of the inequality multiply
  // by the weight, so a scaled witness still certifies the same value.
  cert_.witness[0].weight = 1000;
  EXPECT_TRUE(cert_.verify(instance_));
}

TEST_F(CorruptedCertificate, RejectsHugeWeightOverflowAttempts) {
  // An inflated claim backed by a weight near INT64_MAX: the capacity
  // side must not wrap negative and sneak past the comparison.
  cert_.value += 1;
  cert_.witness[0].weight = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(cert_.verify(instance_));
}

TEST(CertificateVerify, RejectsBoundAboveOptEvenWithFabricatedWitness) {
  // A hand-fabricated dual assignment claiming 4 on a blob whose OPT is
  // 3: every window [1, 3] is covered, demand 9 <= capacity 4 * 3.
  const Instance instance = SingleJob(MakeParallelBlob(9));
  Certificate fake;
  fake.value = 4;
  fake.m = 4;
  fake.method = "dual-fit";
  fake.witness = {{1, 3, 1}};
  EXPECT_FALSE(fake.verify(instance));
}

// ---- windows and the relaxation decision ----

TEST(SubjobWindows, ChainWindowsMatchDepthAndHeight) {
  const Instance instance = SingleJob(MakeChain(3), /*release=*/2);
  const auto windows = ComputeSubjobWindows(instance, /*flow_bound=*/4);
  ASSERT_EQ(windows.size(), 3u);
  // Node 0: depth 1, height 3 -> [3, 4]; node 1: [4, 5]; node 2: [5, 6].
  EXPECT_EQ(windows[0].earliest, 3);
  EXPECT_EQ(windows[0].latest, 4);
  EXPECT_EQ(windows[1].earliest, 4);
  EXPECT_EQ(windows[1].latest, 5);
  EXPECT_EQ(windows[2].earliest, 5);
  EXPECT_EQ(windows[2].latest, 6);
}

TEST(FlowRelaxation, DecisionIsMonotoneInTheFlowBound) {
  Rng rng(99);
  const Instance instance =
      RandomSmallInstance(rng, /*node_budget=*/12, /*max_release=*/3);
  const Time value = MaxFlowCertificate(instance, 2).value;
  EXPECT_FALSE(FlowRelaxationFeasible(instance, 2, value - 1));
  EXPECT_TRUE(FlowRelaxationFeasible(instance, 2, value));
  EXPECT_TRUE(FlowRelaxationFeasible(instance, 2, value + 5));
}

TEST(FlowRelaxation, WitnessDeficiencyIsRealOnHandInstance) {
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(8), 0));
  instance.add_job(Job(MakeParallelBlob(8), 0));
  std::vector<DualInterval> witness;
  ASSERT_FALSE(FlowRelaxationFeasible(instance, 2, 7, nullptr, &witness));
  ASSERT_EQ(witness.size(), 1u);
  // T = [1, 7]: all 16 unit windows [1, 7] are inside, supply is 14.
  EXPECT_EQ(witness[0].first, 1);
  EXPECT_EQ(witness[0].last, 7);
}

/// Certificate claiming flow_bound + 1 on the relaxation's own witness;
/// verify() re-checks it from the instance alone.
bool WitnessVerifies(const Instance& instance, int m, Time flow_bound,
                     const BudgetTrace* budget) {
  Certificate cert;
  cert.value = flow_bound + 1;
  cert.m = m;
  EXPECT_FALSE(FlowRelaxationFeasible(instance, m, flow_bound, budget,
                                      &cert.witness));
  return cert.verify(instance, budget);
}

TEST(FlowRelaxation, WitnessStartsAfterTheLastGapBetweenWindows) {
  // m = 1: the blob released at 10 needs [11, 12] for 3 units; the
  // released-at-0 windows end long before, so T starts at 11.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(2), 0));
  instance.add_job(Job(MakeParallelBlob(3), 10));
  std::vector<DualInterval> witness;
  ASSERT_FALSE(FlowRelaxationFeasible(instance, 1, 2, nullptr, &witness));
  ASSERT_EQ(witness.size(), 1u);
  EXPECT_EQ(witness[0].first, 11);
  EXPECT_EQ(witness[0].last, 12);
  EXPECT_TRUE(WitnessVerifies(instance, 1, 2, nullptr));
  EXPECT_TRUE(FlowRelaxationFeasible(instance, 1, 3));
}

TEST(FlowRelaxation, WitnessSkipsASlotThatServedALaterDeadline) {
  // m = 1, F = 3: slot 1 serves one of the blob's windows [1, 3] and
  // leaves the other pending; the two chain roots released at 1 both need
  // slot 2 (window [2, 2]).  The miss is at L = 2 and slot 1 served a
  // deadline beyond it, so T = [2, 2] although the sweep was busy since 1.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(2), 0));
  instance.add_job(Job(MakeChain(3), 1));
  instance.add_job(Job(MakeChain(3), 1));
  std::vector<DualInterval> witness;
  ASSERT_FALSE(FlowRelaxationFeasible(instance, 1, 3, nullptr, &witness));
  ASSERT_EQ(witness.size(), 1u);
  EXPECT_EQ(witness[0].first, 2);
  EXPECT_EQ(witness[0].last, 2);
  EXPECT_TRUE(WitnessVerifies(instance, 1, 3, nullptr));
}

TEST(FlowRelaxation, ZeroCapacityStretchesDelayTheSweep) {
  // Slots 2 and 3 are stalled: at F = 3 only slot 1 serves [1, 3], so the
  // witness is the whole window; slot 4 restores two processors.
  const Instance instance = SingleJob(MakeParallelBlob(3));
  BudgetTrace stall;
  stall.set(2, 0);
  stall.set(3, 0);
  std::vector<DualInterval> witness;
  ASSERT_FALSE(FlowRelaxationFeasible(instance, 2, 3, &stall, &witness));
  ASSERT_EQ(witness.size(), 1u);
  EXPECT_EQ(witness[0].first, 1);
  EXPECT_EQ(witness[0].last, 3);
  EXPECT_TRUE(WitnessVerifies(instance, 2, 3, &stall));
  EXPECT_TRUE(FlowRelaxationFeasible(instance, 2, 4, &stall));
  EXPECT_EQ(MaxFlowCertificate(instance, 2, &stall).value, 4);

  // A stall before any window opens costs nothing.
  BudgetTrace early;
  early.set(1, 0);
  const Instance late = SingleJob(MakeParallelBlob(3), /*release=*/4);
  EXPECT_TRUE(FlowRelaxationFeasible(late, 2, 2, &early));
}

/// The relaxation decided by augmenting paths over one node per unit of
/// slot capacity: the textbook bipartite-matching definition, independent
/// of the sweep.
bool MatchingFeasible(const Instance& instance, int m, Time flow_bound,
                      const BudgetTrace* budget) {
  const std::vector<SlotWindow> windows =
      ComputeSubjobWindows(instance, flow_bound);
  std::vector<Time> units;  // the slot of each capacity unit
  Time horizon = 0;
  for (const SlotWindow& w : windows) {
    if (w.earliest > w.latest) return false;
    horizon = std::max(horizon, w.latest);
  }
  for (Time t = 1; t <= horizon; ++t) {
    const int capacity = budget == nullptr ? m : budget->capacity_at(t, m);
    units.insert(units.end(), static_cast<std::size_t>(capacity), t);
  }
  std::vector<int> owner(units.size(), -1);
  std::vector<char> seen;
  const std::function<bool(int)> augment = [&](int i) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      const SlotWindow& w = windows[static_cast<std::size_t>(i)];
      if (seen[u] || units[u] < w.earliest || units[u] > w.latest) continue;
      seen[u] = 1;
      if (owner[u] < 0 || augment(owner[u])) {
        owner[u] = i;
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < windows.size(); ++i) {
    seen.assign(units.size(), 0);
    if (!augment(static_cast<int>(i))) return false;
  }
  return true;
}

TEST(FlowRelaxation, SweepAgreesWithBipartiteMatching) {
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 0x2545F4914F6CDD1DULL + 5);
    const Instance instance =
        RandomSmallInstance(rng, /*node_budget=*/10, /*max_release=*/6);
    const int m = 1 + static_cast<int>(rng.next_below(3));
    const BudgetTrace trace = RandomTrace(rng, m, /*max_len=*/14);
    const BudgetTrace* budget = seed % 2 == 0 ? &trace : nullptr;
    Time first_feasible = 0;
    for (Time flow_bound = 1; flow_bound <= 12; ++flow_bound) {
      const bool feasible =
          FlowRelaxationFeasible(instance, m, flow_bound, budget);
      if (feasible && first_feasible == 0) first_feasible = flow_bound;
      ASSERT_EQ(feasible, MatchingFeasible(instance, m, flow_bound, budget))
          << "F=" << flow_bound << " m=" << m << "\n"
          << InstanceToText(instance);
      if (!feasible) {
        ++infeasible;
        ASSERT_TRUE(WitnessVerifies(instance, m, flow_bound, budget))
            << "F=" << flow_bound << " m=" << m << "\n"
            << InstanceToText(instance);
      }
    }
    // The one-pass certificate is the smallest feasible F.
    if (first_feasible > 0) {
      ASSERT_EQ(MaxFlowCertificate(instance, m, budget).value, first_feasible)
          << "m=" << m << "\n"
          << InstanceToText(instance);
    }
  }
  EXPECT_GE(infeasible, 300);
}

}  // namespace
}  // namespace otsched
