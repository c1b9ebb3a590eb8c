// Mutation-injection tests for src/check: starting from a battery of
// known-good artifacts (a simulated schedule, LPF schedules, a
// Most-Children replay log, flow numbers), each test corrupts exactly ONE
// artifact and asserts that exactly the INTENDED oracle flags it while
// every other oracle still passes.  This is what certifies the oracle
// layer itself — a detector that fires on the wrong corruption (or not at
// all) is as dangerous as the bug it is meant to catch.
#include "gtest_compat.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "check/diffrun.h"
#include "check/oracles.h"
#include "sched/registry.h"
#include "common/rng.h"
#include "dag/validate.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "opt/single_batch.h"
#include "sched/fifo.h"
#include "sim/engine.h"

namespace otsched {
namespace {

constexpr int kAlpha = 4;

/// Every artifact the five oracles consume, derived from one out-tree.
struct Artifacts {
  Dag dag;
  Instance instance;  // the single job, release 0
  int m = 0;
  Schedule schedule{1};
  Time max_flow = 0;
  Time opt = 0;  // exact: single job at release 0 => SingleBatchOpt
  Schedule lpf{1};      // LPF[m]
  Schedule reduced{1};  // LPF[ceil(m/alpha)]
  McReplayLog log;      // MC replay of `reduced`'s packed tail
};

Artifacts MakeArtifacts(std::uint64_t seed, int m, NodeId nodes = 26) {
  Rng rng(seed);
  Artifacts a;
  a.dag = MakeTree(TreeFamily::kMixed, nodes, rng);
  a.instance.add_job(Job(Dag(a.dag), 0));
  a.m = m;
  FifoScheduler fifo;
  const SimResult run = Simulate(a.instance, m, fifo);
  a.schedule = run.full_schedule();
  a.max_flow = run.flows.max_flow;
  a.opt = SingleBatchOpt(a.dag, m);
  a.lpf = BuildLpfSchedule(a.dag, m);
  const int p = (m + kAlpha - 1) / kAlpha;
  a.reduced = BuildLpfSchedule(a.dag, p);
  // Lemma 5.5's busy guarantee needs every replayed slot except the last
  // to be full; by Lemma 5.2 that holds for the tail past OPT[m], so the
  // head is pre-executed — exactly Algorithm A's usage.
  const Time prefix = std::min<Time>(a.opt, a.reduced.horizon());
  const std::array<int, 3> budgets = {p, 1, std::max(1, p - 1)};
  a.log = RunMostChildrenLog(a.dag, a.reduced, budgets, prefix);
  return a;
}

/// Artifacts whose reduced schedule has a real packed tail (some deep
/// trees finish within the head; grow the tree until a tail exists so the
/// MC/tail mutation tests always have something to corrupt).
Artifacts MakeTailArtifacts(std::uint64_t seed, int m) {
  for (NodeId nodes : {26, 40, 56, 72, 96}) {
    Artifacts a = MakeArtifacts(seed, m, nodes);
    if (a.log.steps.size() >= 3) return a;
  }
  ADD_FAILURE() << "no tree with a packed tail for seed " << seed;
  return MakeArtifacts(seed, m);
}

/// Runs all five oracles on the artifact set, in OracleId order.
std::vector<OracleResult> RunAllOracles(const Artifacts& a) {
  return {
      CheckFeasibilityOracle(a.schedule, a.instance),
      CheckLpfValueOracle(a.dag, a.m, a.lpf, /*cross_check_brute_force=*/
                          a.dag.node_count() <= 16),
      CheckHeadTailOracle(a.dag, a.m, kAlpha, a.reduced),
      CheckMcBusyOracle(a.dag, a.reduced, a.log),
      CheckRatioCeilingOracle(a.instance, a.m, a.max_flow,
                              kTheorem57Ceiling, a.opt),
  };
}

/// Asserts that exactly `intended` failed and the other four passed.
void ExpectOnly(const std::vector<OracleResult>& results, OracleId intended,
                const std::string& context) {
  for (const OracleResult& r : results) {
    if (r.id == intended) {
      EXPECT_FALSE(r.ok) << context << ": intended oracle " << ToString(r.id)
                         << " did not fire";
    } else {
      EXPECT_TRUE(r.ok) << context << ": unintended oracle "
                        << ToString(r.id) << " fired: " << r.detail;
    }
  }
}

/// Copies `source` onto `m` processors, moving `node` from slot `from` to
/// the end of slot `to` (kNoTime drops it).  Pass from = kNoTime to move
/// nothing.
Schedule CopyWithNodeMoved(const Schedule& source, int m, Time from,
                           NodeId node, Time to) {
  Schedule copy(m);
  const SubjobRef moved{0, node};
  for (Time t = 1; t <= std::max(source.horizon(), to); ++t) {
    for (const SubjobRef& ref : source.at(t)) {
      if (t != from || ref != moved) copy.place(t, ref);
    }
    if (t == to) copy.place(t, moved);
  }
  return copy;
}

/// A leaf scheduled in the given slot (moving a leaf later never breaks
/// precedence), or -1.
NodeId LeafIn(const Dag& dag, const Schedule& schedule, Time slot) {
  for (const SubjobRef& ref : schedule.at(slot)) {
    if (dag.children(ref.node).empty()) return ref.node;
  }
  return -1;
}

class OracleMutationTest : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam()) * 1013;
  }
};

TEST_P(OracleMutationTest, BaselineAllPass) {
  for (int m : {1, 2, 3, 4, 8}) {
    const Artifacts good = MakeArtifacts(seed(), m);
    for (const OracleResult& r : RunAllOracles(good)) {
      EXPECT_TRUE(r.ok) << "m=" << m << " " << ToString(r.id) << ": "
                        << r.detail;
    }
  }
}

TEST_P(OracleMutationTest, DroppedSubjobFiresFeasibilityOnly) {
  Artifacts a = MakeArtifacts(seed(), 3);
  // Rebuild the simulated schedule without its last placed subjob.
  Schedule corrupted(a.m);
  SubjobRef victim{-1, -1};
  for (Time t = a.schedule.horizon(); t >= 1 && victim.job < 0; --t) {
    const auto slot = a.schedule.at(t);
    if (!slot.empty()) victim = slot.back();
  }
  ASSERT_GE(victim.job, 0);
  bool dropped = false;
  for (Time t = 1; t <= a.schedule.horizon(); ++t) {
    for (const SubjobRef& ref : a.schedule.at(t)) {
      if (!dropped && ref == victim) {
        dropped = true;
        continue;
      }
      corrupted.place(t, ref);
    }
  }
  a.schedule = std::move(corrupted);
  ExpectOnly(RunAllOracles(a), OracleId::kFeasibility, "dropped subjob");
}

TEST_P(OracleMutationTest, DuplicatedSubjobFiresFeasibilityOnly) {
  Artifacts a = MakeArtifacts(seed(), 3);
  SubjobRef victim = a.schedule.at(1).front();
  a.schedule.place(a.schedule.horizon() + 1, victim);
  ExpectOnly(RunAllOracles(a), OracleId::kFeasibility, "duplicated subjob");
}

TEST_P(OracleMutationTest, StretchedLpfFiresLpfValueOnly) {
  Artifacts a = MakeArtifacts(seed(), 3);
  // Move a leaf from the final slot into a fresh extra slot: still a
  // feasible single-job schedule, but one slot longer than Corollary 5.4.
  const Time last = a.lpf.horizon();
  const NodeId leaf = LeafIn(a.dag, a.lpf, last);
  ASSERT_GE(leaf, 0);
  a.lpf = CopyWithNodeMoved(a.lpf, a.m, last, leaf, last + 1);
  ExpectOnly(RunAllOracles(a), OracleId::kLpfValue, "stretched LPF[m]");
}

TEST_P(OracleMutationTest, IncompleteLpfFiresLpfValueOnly) {
  Artifacts a = MakeArtifacts(seed(), 4);
  // Erase a leaf from its slot entirely: total_placed() < node_count.
  const Time last = a.lpf.horizon();
  const NodeId leaf = LeafIn(a.dag, a.lpf, last);
  ASSERT_GE(leaf, 0);
  a.lpf = CopyWithNodeMoved(a.lpf, a.m, last, leaf, kNoTime);
  ExpectOnly(RunAllOracles(a), OracleId::kLpfValue, "incomplete LPF[m]");
}

TEST_P(OracleMutationTest, DentedTailFiresHeadTailOnly) {
  // Use m = 8 so p = 2 and the packed tail is non-trivial; carving a leaf
  // out of a full tail slot dents the Figure 2 rectangle.
  Artifacts a = MakeTailArtifacts(seed(), 8);
  const int p = a.reduced.m();
  Time full_tail_slot = kNoTime;
  NodeId leaf = -1;
  for (Time t = a.reduced.horizon() - 1; t > a.opt; --t) {
    if (a.reduced.load(t) == p) {
      const NodeId candidate = LeafIn(a.dag, a.reduced, t);
      if (candidate >= 0) {
        full_tail_slot = t;
        leaf = candidate;
        break;
      }
    }
  }
  if (full_tail_slot == kNoTime) {
    GTEST_SKIP() << "no full tail slot with a movable leaf for this seed";
  }
  a.reduced = CopyWithNodeMoved(a.reduced, p, full_tail_slot, leaf,
                                a.reduced.horizon() + 1);
  // The MC oracle only reads the head slots (all < full_tail_slot) out of
  // the schedule, so the pre-recorded log stays valid: exactly one
  // artifact is corrupted.
  ExpectOnly(RunAllOracles(a), OracleId::kHeadTail, "dented tail");
}

TEST_P(OracleMutationTest, WrongBudgetFiresHeadTailOnly) {
  Artifacts a = MakeArtifacts(seed(), 8);
  // Claims ceil(m/alpha)+1 processors.
  a.reduced = CopyWithNodeMoved(a.reduced, a.reduced.m() + 1, kNoTime, -1,
                                kNoTime);
  ExpectOnly(RunAllOracles(a), OracleId::kHeadTail, "wrong reduced budget");
}

TEST_P(OracleMutationTest, WastedProcessorFiresMcBusyOnly) {
  Artifacts a = MakeTailArtifacts(seed(), 8);
  // Find a step that used its whole budget with work left after it, and
  // raise the claimed budget: the step now "wasted" a processor.
  bool injected = false;
  for (std::size_t i = 0; i + 1 < a.log.steps.size(); ++i) {
    if (static_cast<int>(a.log.steps[i].scheduled.size()) ==
        a.log.steps[i].budget) {
      a.log.steps[i].budget += 1;
      injected = true;
      break;
    }
  }
  ASSERT_TRUE(injected) << "replay had no full step before the last";
  ExpectOnly(RunAllOracles(a), OracleId::kMcBusy, "wasted processor");
}

TEST_P(OracleMutationTest, ReExecutionFiresMcBusyOnly) {
  Artifacts a = MakeTailArtifacts(seed(), 8);
  ASSERT_GE(a.log.steps.size(), 2u);
  ASSERT_FALSE(a.log.steps[0].scheduled.empty());
  // Replace the last step's first node with a node already run in step 1:
  // same budgets and counts, but one node runs twice and one never runs.
  auto& last = a.log.steps.back().scheduled;
  ASSERT_FALSE(last.empty());
  last[0] = a.log.steps[0].scheduled[0];
  ExpectOnly(RunAllOracles(a), OracleId::kMcBusy, "re-executed node");
}

TEST_P(OracleMutationTest, InflatedFlowFiresRatioCeilingOnly) {
  Artifacts a = MakeArtifacts(seed(), 4);
  a.max_flow =
      static_cast<Time>(kTheorem57Ceiling * static_cast<double>(a.opt)) + 1;
  ExpectOnly(RunAllOracles(a), OracleId::kRatioCeiling, "inflated flow");
}

TEST_P(OracleMutationTest, UnfinishedRunFiresRatioCeilingOnly) {
  Artifacts a = MakeArtifacts(seed(), 4);
  a.max_flow = kInfiniteTime;  // a job that never completes
  ExpectOnly(RunAllOracles(a), OracleId::kRatioCeiling, "unfinished run");
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleMutationTest, ::testing::Range(1, 7));

// ---- flow-floor direction (diffrun's differential check) ----

TEST(RatioCeilingOracle, LowerBoundDenominatorIsConservative) {
  // With no certified OPT the oracle must fall back to the lower-bound
  // certificate; a flow within ceiling * bound passes, far above fails.
  Rng rng(99);
  const Dag tree = MakeTree(TreeFamily::kSpiny, 20, rng);
  Instance instance;
  instance.add_job(Job(Dag(tree), 0));
  const int m = 2;
  FifoScheduler fifo;
  const SimResult run = Simulate(instance, m, fifo);
  EXPECT_TRUE(CheckRatioCeilingOracle(instance, m, run.flows.max_flow,
                                      kTheorem56Ceiling));
  EXPECT_FALSE(CheckRatioCeilingOracle(instance, m,
                                       run.flows.max_flow * 100000,
                                       kTheorem56Ceiling));
}

// ---- shrinking ----

TEST(ShrinkInstance, ConvergesToSinglePredicateCarrier) {
  // Predicate: "some job has >= 12 subjobs".  The shrunk instance must
  // still satisfy it but consist of exactly the one carrier job.
  Rng rng(7);
  Instance fat = MakePoissonArrivals(
      6, 0.2,
      [](std::int64_t i, Rng& r) {
        const NodeId size = (i == 3) ? 14 : static_cast<NodeId>(
                                                4 + r.next_below(4));
        return MakeTree(TreeFamily::kMixed, size, r);
      },
      rng);
  const FailurePredicate predicate = [](const Instance& candidate) {
    for (JobId i = 0; i < candidate.job_count(); ++i) {
      if (candidate.job(i).dag().node_count() >= 12) return true;
    }
    return false;
  };
  ASSERT_TRUE(predicate(fat));
  std::int64_t evals = 0;
  const Instance lean = ShrinkInstance(fat, predicate, 400, &evals);
  EXPECT_TRUE(predicate(lean));
  EXPECT_EQ(lean.job_count(), 1);
  EXPECT_GT(evals, 0);
  // Subtree dropping also trims the carrier itself down to the threshold.
  EXPECT_LT(lean.total_work(), fat.total_work());
}

TEST(ShrinkInstance, RespectsEvalBudget) {
  Rng rng(8);
  Instance fat = MakePoissonArrivals(
      8, 0.3,
      [](std::int64_t, Rng& r) {
        return MakeTree(TreeFamily::kMixed,
                        static_cast<NodeId>(6 + r.next_below(6)), r);
      },
      rng);
  std::int64_t evals = 0;
  const Instance out = ShrinkInstance(
      fat, [](const Instance&) { return true; }, 5, &evals);
  EXPECT_LE(evals, 5);
  EXPECT_TRUE(out.job_count() >= 1);
}

TEST(RemoveSubtree, DropsDescendantsAndStaysForest) {
  Rng rng(9);
  const Dag tree = MakeTree(TreeFamily::kMixed, 30, rng);
  // Remove a non-root, non-leaf node so descendants actually exist.
  NodeId victim = -1;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (!tree.parents(v).empty() && !tree.children(v).empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const Dag pruned = RemoveSubtree(tree, victim);
  EXPECT_LT(pruned.node_count(), tree.node_count());
  EXPECT_GE(pruned.node_count(), 1);
  EXPECT_TRUE(IsOutForest(pruned));
  // Non-descendant structure survives: same number of roots.
  int roots_before = 0, roots_after = 0;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    roots_before += tree.parents(v).empty() ? 1 : 0;
  }
  for (NodeId v = 0; v < pruned.node_count(); ++v) {
    roots_after += pruned.parents(v).empty() ? 1 : 0;
  }
  EXPECT_EQ(roots_after, roots_before);
}

// ---- harness end-to-end on a tiny grid ----

TEST(DifferentialFuzz, TinyGridIsClean) {
  FuzzOptions options;
  options.seeds = 3;
  options.max_jobs = 5;
  options.max_job_nodes = 18;
  options.machine_sizes = {1, 2, 4};
  options.workers = 2;
  const FuzzReport report = RunDifferentialFuzz(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Pinned: any drift in which cases the grid runs, or in the legs a
  // case derives from its identity hash, changes these counts.
  EXPECT_EQ(report.simulations, 356);
  EXPECT_EQ(report.oracle_checks, 719);
}

TEST(DifferentialFuzz, ReplayRoundTripsThroughSerializedRepro) {
  // A repro file is instance text plus `# policy/m/seed` headers; replay
  // must re-run the exact case deterministically.
  Rng rng(11);
  Instance instance = MakePoissonArrivals(
      3, 0.2,
      [](std::int64_t, Rng& r) {
        return MakeTree(TreeFamily::kMixed, 8, r);
      },
      rng);
  instance.set_name("replay-roundtrip");
  const std::string repro = "# policy: fifo/first-ready\n# m: 2\n"
                            "# seed: 11\n" +
                            InstanceToText(instance);
  const FuzzReport report = ReplayRepro(repro);
  EXPECT_TRUE(report.ok()) << report.summary();
  // The extra legs (record-mode rerun, faulted engine-equivalence pair)
  // are pure functions of the case identity, so replay re-runs exactly
  // what the original fuzz case ran: here the primary simulation plus
  // the two faulted-equivalence runs.
  EXPECT_EQ(report.simulations, 3);
  EXPECT_GT(report.oracle_checks, 0);
  // Replay is deterministic: a second pass reproduces the same counts.
  const FuzzReport again = ReplayRepro(repro);
  EXPECT_EQ(again.simulations, report.simulations);
  EXPECT_EQ(again.oracle_checks, report.oracle_checks);

  // The `# job-faults: 1` header alone adds the job-fault legs: the
  // plain, armed and crashing flow-only runs, with one oracle each for
  // no-lost-work and committed feasibility.
  const std::string faulted_repro = "# job-faults: 1\n" + repro;
  const FuzzReport faulted = ReplayRepro(faulted_repro);
  EXPECT_TRUE(faulted.ok()) << faulted.summary();
  EXPECT_EQ(faulted.simulations, report.simulations + 3);
  EXPECT_EQ(faulted.oracle_checks, report.oracle_checks + 2);
}

TEST(DifferentialFuzz, ReproFileNamesCarryTheFailureOrdinal) {
  // Two failures of one seed with the same case, oracle and kind (two
  // jobs' structural checks, say) must not share a file.
  EXPECT_EQ(ReproFileName(7, 4, "alg-a/general", OracleId::kFeasibility,
                          "online", 0),
            "repro_seed7_m4_alg-a-general_feasibility-S3-axioms-_online_0"
            ".inst");
  EXPECT_NE(ReproFileName(7, 4, "<lpf-structural>", OracleId::kLpfValue,
                          "tree", 0),
            ReproFileName(7, 4, "<lpf-structural>", OracleId::kLpfValue,
                          "tree", 1));
}

TEST(DifferentialFuzz, ReplayReportsMalformedReprosWithoutAborting) {
  // Repro files are hand-editable: every broken header, instance or
  // inapplicable case is one "<malformed-repro>" failure, never an abort.
  const std::string body =
      "otsched-instance-v1\nname malformed\njob 0 2\n0 1\nend\n";
  const std::string bad_edge =
      "otsched-instance-v1\nname malformed\njob 0 2\n0 5\nend\n";
  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"non-numeric m", "# policy: fifo/first-ready\n# m: x\n" + body},
      {"zero m", "# policy: fifo/first-ready\n# m: 0\n" + body},
      {"m not divisible by alpha", "# policy: alg-a/general\n# m: 3\n" + body},
      {"edge out of range", "# policy: fifo/first-ready\n# m: 2\n" + bad_edge},
      {"negative seed", "# policy: fifo/first-ready\n# seed: -1\n" + body},
      {"non-numeric known-opt",
       "# policy: fifo/first-ready\n# known-opt: abc\n" + body},
      {"overflowing m",
       "# policy: fifo/first-ready\n# m: 4294967298\n" + body},
      {"unknown policy", "# policy: no-such-policy\n# m: 2\n" + body},
      {"missing policy", "# m: 2\n# seed: 1\n" + body},
      {"semi-batched without known-opt",
       "# policy: alg-a/semi-batched\n# m: 4\n" + body},
      {"semi-batched with an odd known-opt",
       "# policy: alg-a/semi-batched\n# m: 4\n# known-opt: 3\n" + body},
      {"structural alpha below 2",
       "# policy: <lpf-structural>\n# m: 2\n# alpha: 1\n" + body},
  };
  for (const auto& c : cases) {
    const FuzzReport report = ReplayRepro(c.text);
    ASSERT_EQ(report.failures.size(), 1u) << c.what << "\n"
                                          << report.summary();
    EXPECT_EQ(report.failures[0].policy, "<malformed-repro>") << c.what;
    EXPECT_FALSE(report.failures[0].detail.empty()) << c.what;
    // No oracle ran, so the printed line names none.
    EXPECT_FALSE(report.failures[0].oracle.has_value()) << c.what;
    const std::string line = "\n  policy=<malformed-repro> m=" +
                             std::to_string(report.failures[0].m) +
                             " seed=" +
                             std::to_string(report.failures[0].seed) + ": " +
                             report.failures[0].detail + "\n";
    EXPECT_NE(report.summary().find(line), std::string::npos)
        << c.what << "\n"
        << report.summary();
    EXPECT_EQ(report.simulations, 0) << c.what;
  }
}

TEST(RunComparator, FlagsEveryComparedFieldButCheckpoints) {
  const Artifacts a = MakeArtifacts(/*seed=*/3, /*m=*/2);
  FifoScheduler fifo;
  const SimResult run = Simulate(a.instance, a.m, fifo);
  const auto differs = [&run](auto mutate) {
    SimResult changed = run;
    mutate(changed);
    return !FirstRunDifference(run, changed).empty();
  };
  EXPECT_FALSE(differs([](SimResult&) {}));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.flows.completion[0]; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.flows.flow[0]; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.flows.max_flow; }));
  EXPECT_TRUE(differs([](SimResult& r) { r.flows.max_flow_job = 1; }));
  EXPECT_TRUE(differs([](SimResult& r) { r.flows.all_completed = false; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.horizon; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.executed_subjobs; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.idle_processor_slots; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.busy_slots; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.faulted_slots; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.capacity_shortfall; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.job_rollbacks; }));
  EXPECT_TRUE(differs([](SimResult& r) { ++r.stats.wasted_subjob_slots; }));
  EXPECT_TRUE(differs([](SimResult& r) {
    const SubjobRef ref = r.schedule->at(1)[0];
    r.schedule->place(r.schedule->horizon() + 1, ref);
  }));
  // Commits are bookkeeping, and a flow-only side has no schedule.
  EXPECT_FALSE(differs([](SimResult& r) { ++r.stats.checkpoints; }));
  EXPECT_FALSE(differs([](SimResult& r) { r.schedule.reset(); }));

  // The no-lost-work oracle compares through it, so a completion slot
  // alone now convicts an armed run.
  SimResult armed = run;
  ++armed.flows.completion[0];
  EXPECT_FALSE(CheckNoLostWorkWhenHealthyOracle(run, armed).ok);
}

TEST(DifferentialFuzz, ReplaysOptCertificateRepro) {
  // The certificate leg runs under the "<opt-certificate>" pseudo-policy:
  // a pure function of (instance, m, seed) — the budget trace re-derives
  // from the headers — so replay needs no simulation and no extra state.
  Rng rng(13);
  Instance instance = MakePoissonArrivals(
      2, 0.3,
      [](std::int64_t, Rng& r) {
        return MakeTree(TreeFamily::kSpiny, 6, r);
      },
      rng);
  instance.set_name("opt-certificate-replay");
  const std::string repro = "# policy: <opt-certificate>\n# m: 2\n"
                            "# seed: 5\n" +
                            InstanceToText(instance);
  const FuzzReport report = ReplayRepro(repro);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.simulations, 0);
  EXPECT_EQ(report.oracle_checks, 1);
  const FuzzReport again = ReplayRepro(repro);
  EXPECT_EQ(again.oracle_checks, report.oracle_checks);
}

TEST(DifferentialFuzz, OptCertificateLegTogglesOracleChecks) {
  FuzzOptions options;
  options.seeds = 2;
  options.max_jobs = 4;
  options.max_job_nodes = 12;
  options.machine_sizes = {1, 2};
  options.workers = 1;
  const FuzzReport with_certificates = RunDifferentialFuzz(options);
  options.opt_certificates = false;
  const FuzzReport without_certificates = RunDifferentialFuzz(options);
  EXPECT_TRUE(with_certificates.ok()) << with_certificates.summary();
  EXPECT_TRUE(without_certificates.ok()) << without_certificates.summary();
  // One certificate check per (seed, m) cell on the general instance.
  EXPECT_EQ(with_certificates.oracle_checks - 4,
            without_certificates.oracle_checks);
}

TEST(PolicyRegistry, CoversEverySchedAndCoreFamily) {
  // The differential harness is only as strong as its policy pool: pin
  // the registry to the full src/sched + src/core surface.
  std::vector<std::string> names;
  for (const PolicySpec& spec : AllPolicies()) {
    names.push_back(spec.name);
  }
  for (const char* required :
       {"fifo/first-ready", "fifo/most-children", "list-greedy",
        "round-robin-equi", "work-stealing", "remaining-work/smallest",
        "global-lpf", "alg-a/general", "alg-a/semi-batched"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "policy registry lost " << required;
  }
}

}  // namespace
}  // namespace otsched
