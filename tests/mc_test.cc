// Tests for core/most_children.h: Lemma 5.5 (MC never wastes a granted
// processor until the job is done), feasibility of its replays, and the
// head-prefix marking used by Algorithm A.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/lpf.h"
#include "core/most_children.h"
#include "dag/builders.h"
#include "gen/random_trees.h"
#include "opt/single_batch.h"
#include "sim/faults.h"
#include "sim/validator.h"

namespace otsched {
namespace {

/// Replays MC to completion under a budget stream and checks feasibility
/// of the produced order against the DAG (parents strictly earlier).
void ReplayAndCheck(const Dag& dag, MostChildrenReplayer& mc,
                    const std::function<int(Time)>& budget_at) {
  std::vector<Time> done_at(static_cast<std::size_t>(dag.node_count()),
                            kNoTime);
  Time t = 0;
  while (!mc.done()) {
    ++t;
    ASSERT_LT(t, 1000000) << "MC failed to make progress";
    std::vector<NodeId> nodes;
    const int budget = budget_at(t);
    const int scheduled = mc.step(budget, &nodes);
    ASSERT_EQ(scheduled, static_cast<int>(nodes.size()));
    EXPECT_LE(scheduled, budget);
    for (NodeId v : nodes) {
      EXPECT_EQ(done_at[static_cast<std::size_t>(v)], kNoTime);
      done_at[static_cast<std::size_t>(v)] = t;
      for (NodeId parent : dag.parents(v)) {
        const Time tp = done_at[static_cast<std::size_t>(parent)];
        EXPECT_NE(tp, kNoTime) << "parent " << parent << " not yet run";
        EXPECT_LT(tp, t) << "parent " << parent << " same-step as child";
      }
    }
  }
}

TEST(MostChildren, CompletesChainUnderUnitBudget) {
  const Dag chain = MakeChain(5);
  const Schedule lpf = BuildLpfSchedule(chain, 1);
  MostChildrenReplayer mc(chain, lpf);
  ReplayAndCheck(chain, mc, [](Time) { return 1; });
  EXPECT_EQ(mc.busy_violations(), 0);
  EXPECT_EQ(mc.now(), 5);
}

TEST(MostChildren, ZeroBudgetStepsIdleHarmlessly) {
  const Dag chain = MakeChain(3);
  MostChildrenReplayer mc(chain, BuildLpfSchedule(chain, 1));
  EXPECT_EQ(mc.step(0), 0);
  EXPECT_EQ(mc.remaining(), 3);
  EXPECT_EQ(mc.busy_violations(), 0);  // zero budget is not a violation
}

// ---- edge budgets from sim/faults: the fluctuating-capacity contract ----

TEST(MostChildren, MidReplayOutageStallsWithoutViolations) {
  // A BudgetTrace pins a zero-capacity outage in the middle of the
  // replay: progress stalls for exactly the outage slots, resumes
  // untouched afterwards, and the stall never counts as a busy violation
  // (Lemma 5.5 only speaks about GRANTED processors).
  Rng rng(3);
  const Dag tree = MakeTree(TreeFamily::kMixed, 24, rng);
  const int p = 3;
  const Schedule lpf = BuildLpfSchedule(tree, p);
  BudgetTrace trace;
  trace.set(3, 0);
  trace.set(4, 0);
  trace.set(5, 0);
  FaultSpec spec;
  spec.model = FaultModel::kTrace;
  spec.trace = &trace;
  BudgetSequencer sequencer(spec, p);

  MostChildrenReplayer mc(tree, lpf);
  Time t = 0;
  Time stalled_steps = 0;
  while (!mc.done()) {
    ++t;
    ASSERT_LT(t, 1000) << "MC failed to make progress";
    const int budget = sequencer.capacity(t, mc.remaining());
    const std::int64_t before = mc.remaining();
    const std::int64_t violations_before = mc.busy_violations();
    const int scheduled = mc.step(budget);
    if (budget == 0) {
      EXPECT_EQ(scheduled, 0);
      EXPECT_EQ(mc.remaining(), before) << "outage slot made progress";
      // A granted budget of zero can never be wasted (Lemma 5.5 only
      // speaks about granted processors).
      EXPECT_EQ(mc.busy_violations(), violations_before);
      ++stalled_steps;
    }
  }
  EXPECT_EQ(stalled_steps, 3);  // exactly the pinned outage slots
  EXPECT_EQ(mc.remaining(), 0);
}

TEST(MostChildren, CapacitySpikeBackToFullBudgetIsUsed) {
  // After a capacity-1 crawl, the budget spikes back to p: MC must
  // immediately consume the whole restored budget (or finish the job) —
  // the no-waste property does not relax after a degraded stretch.
  const int p = 4;
  const Dag star = MakeStar(13);  // root then 12 independent leaves
  const Schedule lpf = BuildLpfSchedule(star, p);
  BudgetTrace trace;
  trace.set(1, 1);
  trace.set(2, 1);
  FaultSpec spec;
  spec.model = FaultModel::kTrace;
  spec.trace = &trace;
  BudgetSequencer sequencer(spec, p);

  MostChildrenReplayer mc(star, lpf);
  Time t = 0;
  while (!mc.done()) {
    ++t;
    ASSERT_LT(t, 1000);
    const int budget = sequencer.capacity(t, mc.remaining());
    const std::int64_t before = mc.remaining();
    const int scheduled = mc.step(budget);
    if (t <= 2) {
      EXPECT_EQ(budget, 1);
      EXPECT_EQ(scheduled, 1);
    } else {
      // Spike back to p: full budget or job finished, never a waste.
      EXPECT_EQ(budget, p);
      EXPECT_EQ(scheduled,
                static_cast<int>(std::min<std::int64_t>(before, p)));
    }
  }
  EXPECT_EQ(mc.busy_violations(), 0);
}

TEST(MostChildren, TraceShorterThanReplayMeansTheMachineRecovers) {
  // The documented BudgetTrace semantics: slots beyond the last pinned
  // entry run at full capacity.  A trace covering only the first slots
  // must not starve the rest of the replay.
  Rng rng(7);
  const Dag tree = MakeTree(TreeFamily::kBranchy, 30, rng);
  const int p = 2;
  const Schedule lpf = BuildLpfSchedule(tree, p);
  BudgetTrace trace;
  trace.set(1, 1);
  trace.set(2, 0);
  FaultSpec spec;
  spec.model = FaultModel::kTrace;
  spec.trace = &trace;
  BudgetSequencer sequencer(spec, p);
  ASSERT_LT(trace.length(), static_cast<Time>(tree.node_count()) / p);

  MostChildrenReplayer mc(tree, lpf);
  Time t = 0;
  while (!mc.done()) {
    ++t;
    ASSERT_LT(t, 1000);
    const int budget = sequencer.capacity(t, mc.remaining());
    if (t > trace.length()) {
      EXPECT_EQ(budget, p) << "machine failed to recover past the trace";
    }
    mc.step(budget);
  }
  EXPECT_EQ(mc.remaining(), 0);
  // Recovery is fast: the degraded prefix (one slot at capacity 1, one
  // outage) can cost at most two extra slots over the all-healthy replay.
  EXPECT_LE(mc.now(), lpf.horizon() + 2);
}

TEST(MostChildren, PrefixMarkingSkipsHead) {
  const Dag chain = MakeChain(6);
  const Schedule lpf = BuildLpfSchedule(chain, 1);
  MostChildrenReplayer mc(chain, lpf);
  mc.mark_prefix_executed(4);
  EXPECT_EQ(mc.remaining(), 2);
  std::vector<NodeId> nodes;
  mc.step(2, &nodes);
  // Only node 4 is ready (its parent, node 3, is in the prefix); node 5
  // must wait a step even with budget available.
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 4);
  nodes.clear();
  mc.step(1, &nodes);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 5);
  EXPECT_TRUE(mc.done());
}

TEST(MostChildren, PrefersNodesWithMoreNextLevelChildren) {
  // Level 1: nodes a (2 children in level 2), b (0 children).  With
  // budget 1, MC must run a first so level 2 opens up.
  Dag::Builder builder(4);
  builder.add_edge(0, 2);
  builder.add_edge(0, 3);
  const Dag dag = std::move(builder).build();
  // Hand-build the schedule: slot 1 = {0, 1}, slot 2 = {2, 3}.
  Schedule s(2);
  for (NodeId v = 0; v < 4; ++v) s.place(1 + v / 2, SubjobRef{0, v});

  MostChildrenReplayer mc(dag, s);
  std::vector<NodeId> nodes;
  mc.step(1, &nodes);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 0);  // the most-children node of level 1
}

// ---- Lemma 5.5 property sweep ----

struct BudgetPattern {
  const char* name;
  std::function<int(Time, int, Rng&)> next;  // (step, p, rng) -> budget
};

class MostChildrenBusyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MostChildrenBusyTest, Lemma55BusyProperty) {
  const auto [family_index, p, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6007 + p);
  const auto family = static_cast<TreeFamily>(family_index);
  const Dag tree = MakeTree(family, 180, rng);
  const Schedule lpf = BuildLpfSchedule(tree, p);
  // Lemma 5.5 requires an input schedule whose only underfull slot is the
  // last one; LPF guarantees that only AFTER the head.  Mark the head as
  // pre-executed like Algorithm A does.
  const Time head = SingleBatchOpt(tree, p * 4);

  for (int pattern = 0; pattern < 3; ++pattern) {
    MostChildrenReplayer mc(tree, lpf);
    mc.mark_prefix_executed(head);
    Rng budget_rng(static_cast<std::uint64_t>(seed) * 31 + pattern);
    Time t = 0;
    while (!mc.done()) {
      ++t;
      ASSERT_LT(t, 100000);
      int budget = 0;
      switch (pattern) {
        case 0:  // always the full allotment
          budget = p;
          break;
        case 1:  // adversarial alternation
          budget = (t % 2 == 0) ? p : 1;
          break;
        case 2:  // random in [0, p]
          budget = static_cast<int>(budget_rng.next_in_range(0, p));
          break;
      }
      const int scheduled = mc.step(budget);
      // Lemma 5.5: either the full budget is used, or the job finished
      // during this step.
      if (scheduled < budget) {
        EXPECT_TRUE(mc.done())
            << ToString(family) << " p=" << p << " seed=" << seed
            << " pattern=" << pattern << " step=" << t << " got "
            << scheduled << "/" << budget;
      }
    }
    EXPECT_EQ(mc.busy_violations(), 0)
        << ToString(family) << " p=" << p << " pattern=" << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MostChildrenBusyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // TreeFamily
                       ::testing::Values(1, 2, 4, 8),  // p
                       ::testing::Values(1, 2, 3, 4)));

TEST(MostChildren, FeasibleOnNonLpfInputSchedules) {
  // MC's feasibility does not depend on the input being LPF: replaying
  // an ARBITRARY valid schedule (here: reverse-height order) must stay
  // precedence-correct; only the Lemma 5.5 busy guarantee may lapse.
  Rng rng(808);
  const Dag tree = MakeTree(TreeFamily::kBranchy, 120, rng);
  const DagMetrics metrics = ComputeMetrics(tree);

  // A "worst practice" schedule: greedily by LOWEST height.
  const Schedule anti = BuildLowestHeightFirstSchedule(tree, metrics, 4);
  ASSERT_TRUE(ValidateSingleJob(anti, tree));

  MostChildrenReplayer mc(tree, anti);
  ReplayAndCheck(tree, mc, [](Time t) { return t % 2 == 0 ? 4 : 2; });
  EXPECT_TRUE(mc.done());
  // busy_violations() may be nonzero here — that is the point.
}

TEST(MostChildren, FullReplayMatchesScheduleWork) {
  Rng rng(404);
  const Dag tree = MakeTree(TreeFamily::kMixed, 100, rng);
  const Schedule lpf = BuildLpfSchedule(tree, 4);
  MostChildrenReplayer mc(tree, lpf);
  ReplayAndCheck(tree, mc, [](Time t) { return t % 3 == 0 ? 4 : 2; });
  EXPECT_EQ(mc.remaining(), 0);
}

}  // namespace
}  // namespace otsched
