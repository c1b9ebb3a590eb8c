// Tests for core/alg_a.h, the window planner, run through AlgAScheduler:
// the known-OPT semi-batched mode (Theorem 5.6), and golden schedules of
// both modes.
#include <string>

#include "gtest_compat.h"

#include "common/fnv.h"
#include "core/alg_a.h"
#include "core/alg_a_full.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/numerics.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AlgASemiBatched, SingleBatchRunsLikeLpf) {
  Rng rng(11);
  const int m = 8;
  CertifiedInstance cert = MakeSpacedSaturatedInstance(m, 6, 1, rng);
  AlgAScheduler::Options options;
  options.known_opt = cert.opt % 2 == 0 ? cert.opt : cert.opt + 1;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(cert.instance, m, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), cert.instance);
  EXPECT_TRUE(report.feasible) << report.violation;
  // One batch, head = LPF[m/4] for 2 windows, then MC with nearly the
  // whole machine: must finish within the Theorem 5.6 envelope easily.
  EXPECT_LE(result.flows.max_flow, 129 * options.known_opt);
}

class AlgASemiBatchedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AlgASemiBatchedSweep, FeasibleAndWithinTheorem56Bound) {
  const auto [m, batches, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 65537 + m);
  const Time delta = 4;
  CertifiedInstance cert =
      MakePipelinedSemiBatchedInstance(m, delta, batches, rng);
  ASSERT_EQ(cert.opt, 2 * delta);
  ASSERT_TRUE(cert.instance.is_batched(cert.opt / 2));

  AlgAScheduler::Options options;
  options.alpha = 4;
  options.known_opt = cert.opt;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(cert.instance, m, scheduler);

  const auto report = ValidateSchedule(result.full_schedule(), cert.instance);
  ASSERT_TRUE(report.feasible) << report.violation;
  EXPECT_TRUE(result.flows.all_completed);
  // Theorem 5.6 guarantee: flow <= beta * OPT / 2 with beta = 258.
  EXPECT_LE(result.flows.max_flow, 129 * cert.opt)
      << "m=" << m << " batches=" << batches << " seed=" << seed;
  // Lemma 5.5 in action: the MC phase never wasted a granted processor.
  EXPECT_EQ(scheduler.mc_busy_violations(), 0);
  // The schedule never beats OPT (certified exact).
  EXPECT_GE(result.flows.max_flow, cert.opt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgASemiBatchedSweep,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),   // m
                       ::testing::Values(1, 3, 8),        // batches
                       ::testing::Values(1, 2)));

TEST(AlgASemiBatched, SaturatedBatchesStayConstantCompetitive) {
  // Spaced saturated batches (OPT = delta, work arrives at full machine
  // rate): measured ratio should be a small constant, far below 129.
  for (int m : {8, 16, 32}) {
    Rng rng(static_cast<std::uint64_t>(m));
    const Time delta = 6;
    CertifiedInstance cert = MakeSpacedSaturatedInstance(m, delta, 6, rng);
    // Releases are multiples of delta = OPT; that is also semi-batched
    // for known_opt = 2 * delta.
    AlgAScheduler::Options options;
    options.known_opt = 2 * delta;
    AlgAScheduler scheduler(options);
    const SimResult result = Simulate(cert.instance, m, scheduler);
    ASSERT_TRUE(ValidateSchedule(result.full_schedule(), cert.instance).feasible);
    const double ratio = static_cast<double>(result.flows.max_flow) /
                         static_cast<double>(cert.opt);
    EXPECT_LE(ratio, 20.0) << "m=" << m;
  }
}

TEST(AlgASemiBatchedDeath, RejectsOddOpt) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  AlgAScheduler::Options options;
  options.known_opt = 7;
  EXPECT_DEATH(AlgAScheduler{options}, "even");
}

TEST(AlgASemiBatchedDeath, RejectsNonSemiBatchedInstance) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeChain(2), 3));  // not a multiple of OPT/2 = 2
  AlgAScheduler::Options options;
  options.known_opt = 4;
  AlgAScheduler scheduler(options);
  EXPECT_DEATH(Simulate(instance, 4, scheduler), "semi-batched");
}

TEST(AlgASemiBatchedDeath, RejectsGeneralDagJobs) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeForkJoin(3), 0));
  AlgAScheduler::Options options;
  options.known_opt = 4;
  AlgAScheduler scheduler(options);
  EXPECT_DEATH(Simulate(instance, 4, scheduler), "out-forest");
}

TEST(AlgAPlanner, AlphaMustDivideM) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(AlgAPlanner(10, 4, 3), "divide");
}

// The release-order check still sees a batch that plan_slot has retired:
// job 0's batch (release 2) finishes at slot 4 and is popped at slot 5,
// after which an older batch (release 0) must abort.
TEST(AlgAPlanner, ReleaseOrderOutlivesRetiredBatches) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  class Probe : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    bool requires_clairvoyance() const override { return true; }
    void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override {
      const Time t = view.slot();
      planner_.plan_slot(t, out);
      const JobId job = t == 1 ? 0 : 1;
      if (t == 1 || t == 5) {
        planner_.add_batch(view, {&job, 1}, t == 1 ? 2 : 0);
      }
    }

   private:
    AlgAPlanner planner_{4, 4, 2};
  };
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeChain(2), 4));
  Probe probe;
  EXPECT_DEATH(Simulate(instance, 4, probe), "release order");
}

TEST(AlgASemiBatched, PerJobWidthNeverExceedsMOverAlpha) {
  // Structural signature of Algorithm A: both the LPF head replay and the
  // MC tail grants cap every batch at m/alpha processors per slot, so no
  // single job ever occupies more than m/alpha machines.
  Rng rng(21);
  const int m = 16;
  CertifiedInstance cert = MakePipelinedSemiBatchedInstance(m, 4, 6, rng);
  AlgAScheduler::Options options;
  options.known_opt = cert.opt;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(cert.instance, m, scheduler);

  for (Time t = 1; t <= result.full_schedule().horizon(); ++t) {
    std::vector<int> per_job(static_cast<std::size_t>(
        cert.instance.job_count()));
    for (const SubjobRef& ref : result.full_schedule().at(t)) {
      ++per_job[static_cast<std::size_t>(ref.job)];
    }
    for (int count : per_job) {
      ASSERT_LE(count, m / options.alpha) << "slot " << t;
    }
  }
}

TEST(AlgASemiBatched, MultipleJobsPerBatchAreUnioned) {
  // Three jobs share each release; Algorithm A must treat them as one
  // batch (Section 5.3 convention) and still meet the bound.
  const int m = 8;
  const Time opt = 8;  // window 4
  Instance instance;
  Rng rng(3);
  for (int b = 0; b < 4; ++b) {
    for (int k = 0; k < 3; ++k) {
      instance.add_job(
          Job(MakeTree(TreeFamily::kMixed, 10, rng), b * (opt / 2)));
    }
  }
  AlgAScheduler::Options options;
  options.known_opt = opt;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, m, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_LE(result.flows.max_flow, 129 * opt);
}

// ---- Golden schedules: Algorithm A's picks, slot by slot ----

// FNV-1a over every slot's (job, node) refs in placement order, with a
// separator after each slot, so any change to which subjobs share a slot
// or to their order within it changes the hash.
std::uint64_t ScheduleHash(const Schedule& s) {
  std::uint64_t h = kFnvOffset;
  for (Time t = 1; t <= s.horizon(); ++t) {
    for (const SubjobRef& ref : s.at(t)) {
      h = Fnv1a(h, static_cast<std::uint64_t>(ref.job));
      h = Fnv1a(h, static_cast<std::uint64_t>(ref.node));
    }
    h = Fnv1a(h, ~std::uint64_t{0});
  }
  return h;
}

Instance BurstyTrees(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed));
  return MakeBurstyArrivals(
      6, 4, 9,
      [](std::int64_t, Rng& r) { return MakeTree(TreeFamily::kMixed, 40, r); },
      rng);
}

Instance BurstyPipelines() {
  Rng rng(6);
  return MakeBurstyArrivals(
      4, 3, 7,
      [](std::int64_t, Rng& r) { return MakeMapReducePipeline(5, 16, r); },
      rng);
}

// Tiled Cholesky DAGs on the OPT/2 = 4 grid.
Instance GridCholesky() {
  Instance instance;
  for (int k = 0; k < 6; ++k) {
    instance.add_job(Job(MakeTiledCholeskyDag(3 + k % 2), 4 * (k / 2)));
  }
  return instance;
}

CertifiedInstance CertifiedFamily(bool pipelined, int m, int alpha) {
  Rng rng(static_cast<std::uint64_t>(m) * 131 + alpha);
  return pipelined ? MakePipelinedSemiBatchedInstance(m, 8, 10, rng)
                   : MakeSpacedSaturatedInstance(m, 8, 10, rng);
}

struct Golden {
  std::uint64_t hash;
  int restarts;
  Time guess;
  std::int64_t mc_busy_violations;
};

void ExpectGolden(const Instance& instance, int m,
                  const AlgAScheduler::Options& options, const Golden& want,
                  const std::string& label) {
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, m, scheduler);
  const auto report = ValidateSchedule(result.full_schedule(), instance);
  EXPECT_TRUE(report.feasible) << label << ": " << report.violation;
  const std::uint64_t hash = ScheduleHash(result.full_schedule());
  EXPECT_EQ(hash, want.hash) << label << std::hex << " hash 0x" << hash;
  EXPECT_EQ(scheduler.restarts(), want.restarts) << label;
  EXPECT_EQ(scheduler.guess(), want.guess) << label;
  EXPECT_EQ(scheduler.mc_busy_violations(), want.mc_busy_violations)
      << label;
}

// The certified families of the Theorem 5.6 and alpha-ablation benches:
// pipelined (OPT = 2 delta, known_opt = OPT) and spaced saturated
// (OPT = delta, releases on multiples of OPT, known_opt = 2 OPT).
TEST(AlgAGolden, SemiBatchedCertifiedFamilies) {
  struct Case {
    bool pipelined;
    int m;
    int alpha;
    Golden want;
  };
  const Case kCases[] = {
      {true, 8, 2, {0xe8fb6e6d95adaca5ull, 0, 8, 0}},
      {true, 8, 4, {0xa3547a707776b115ull, 0, 8, 0}},
      {true, 16, 2, {0xfa86b1c8edc34465ull, 0, 8, 0}},
      {true, 16, 4, {0x6e34dfc7aee4b3a5ull, 0, 8, 0}},
      {false, 8, 2, {0x709eb590dec83935ull, 0, 8, 0}},
      {false, 8, 4, {0x27ecb734e807f915ull, 0, 8, 0}},
      {false, 16, 2, {0x776286a9849641a5ull, 0, 8, 0}},
      {false, 16, 4, {0xa38e04d661773405ull, 0, 8, 0}},
  };
  for (const Case& c : kCases) {
    const CertifiedInstance cert = CertifiedFamily(c.pipelined, c.m, c.alpha);
    AlgAScheduler::Options options;
    options.alpha = c.alpha;
    options.known_opt = c.pipelined ? cert.opt : 2 * cert.opt;
    ExpectGolden(cert.instance, c.m, options, c.want,
                 (c.pipelined ? "pipelined m=" : "spaced m=") +
                     std::to_string(c.m) + " alpha=" +
                     std::to_string(c.alpha));
  }
}

// Bursts that outgrow the initial guess, so every run restarts.
TEST(AlgAGolden, GeneralBurstyStreams) {
  struct Case {
    int beta;
    int m;
    Golden want;
  };
  const Case kCases[] = {
      {4, 8, {0x3f1fda11d62e15e5ull, 6, 64, 0}},
      {4, 16, {0xbbe7e50468962595ull, 5, 32, 0}},
      {8, 8, {0x0e020d4acd5e46e5ull, 5, 32, 0}},
      {8, 16, {0x46c81c9d88c8f5a5ull, 4, 16, 0}},
      {16, 8, {0xf061182540150b2dull, 4, 16, 0}},
      {16, 16, {0x0a5c6ee830ff663dull, 3, 8, 0}},
  };
  for (const Case& c : kCases) {
    AlgAScheduler::Options options;
    options.beta = c.beta;
    ExpectGolden(BurstyTrees(c.beta + c.m), c.m, options, c.want,
                 "beta=" + std::to_string(c.beta) +
                     " m=" + std::to_string(c.m));
  }
}

// General DAGs break Lemma 5.5, so these pin nonzero busy violations,
// counted across the general mode's restarts.
TEST(AlgAGolden, GeneralDags) {
  AlgAScheduler::Options general;
  general.beta = 8;
  general.allow_general_dags = true;
  ExpectGolden(BurstyPipelines(), 16, general,
               {0xa2abc83348887ef4ull, 4, 16, 4}, "general");
  AlgAScheduler::Options known;
  known.known_opt = 8;
  known.allow_general_dags = true;
  ExpectGolden(GridCholesky(), 16, known, {0xe30bfc1628bae444ull, 0, 4, 3},
               "known opt");
}

}  // namespace
}  // namespace otsched
