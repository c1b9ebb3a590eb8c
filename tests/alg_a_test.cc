// Tests for core/alg_a.h: the semi-batched super-clairvoyant Algorithm A
// (Theorem 5.6).
#include "gtest_compat.h"

#include "core/alg_a.h"
#include "dag/builders.h"
#include "gen/certified.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AlgASemiBatched, SingleBatchRunsLikeLpf) {
  Rng rng(11);
  const int m = 8;
  CertifiedInstance cert = MakeSpacedSaturatedInstance(m, 6, 1, rng);
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = cert.opt % 2 == 0 ? cert.opt : cert.opt + 1;
  AlgASemiBatchedScheduler scheduler(options);
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

  AlgASemiBatchedScheduler::Options options;
  options.alpha = 4;
  options.known_opt = cert.opt;
  AlgASemiBatchedScheduler scheduler(options);
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
    AlgASemiBatchedScheduler::Options options;
    options.known_opt = 2 * delta;
    AlgASemiBatchedScheduler scheduler(options);
    const SimResult result = Simulate(cert.instance, m, scheduler);
    ASSERT_TRUE(ValidateSchedule(result.full_schedule(), cert.instance).feasible);
    const double ratio = static_cast<double>(result.flows.max_flow) /
                         static_cast<double>(cert.opt);
    EXPECT_LE(ratio, 20.0) << "m=" << m;
  }
}

TEST(AlgASemiBatchedDeath, RejectsOddOpt) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = 7;
  EXPECT_DEATH(AlgASemiBatchedScheduler{options}, "even");
}

TEST(AlgASemiBatchedDeath, RejectsNonSemiBatchedInstance) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeChain(2), 3));  // not a multiple of OPT/2 = 2
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = 4;
  AlgASemiBatchedScheduler scheduler(options);
  EXPECT_DEATH(Simulate(instance, 4, scheduler), "semi-batched");
}

TEST(AlgASemiBatchedDeath, RejectsGeneralDagJobs) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Instance instance;
  instance.add_job(Job(MakeForkJoin(3), 0));
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = 4;
  AlgASemiBatchedScheduler scheduler(options);
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
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = cert.opt;
  AlgASemiBatchedScheduler scheduler(options);
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
  AlgASemiBatchedScheduler::Options options;
  options.known_opt = opt;
  AlgASemiBatchedScheduler scheduler(options);
  const SimResult result = Simulate(instance, m, scheduler);
  ASSERT_TRUE(ValidateSchedule(result.full_schedule(), instance).feasible);
  EXPECT_LE(result.flows.max_flow, 129 * opt);
}

}  // namespace
}  // namespace otsched
