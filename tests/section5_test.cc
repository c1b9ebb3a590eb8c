// Tests for analysis/section5.h: the Theorem 5.6 proof structure holds
// on real Algorithm A runs, and the checker detects fabricated breaks.
#include <gtest/gtest.h>

#include "analysis/section5.h"
#include "core/alg_a_full.h"
#include "gen/series_parallel.h"
#include "dag/builders.h"
#include "gen/certified.h"
#include "sim/engine.h"

namespace otsched {
namespace {

class Section5SweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Section5SweepTest, HoldsOnAlgARuns) {
  const auto [m, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + m);
  const Time delta = 4;
  CertifiedInstance cert =
      MakePipelinedSemiBatchedInstance(m, delta, 8, rng);

  AlgAScheduler::Options options;
  options.known_opt = cert.opt;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(cert.instance, m, scheduler);

  const Section5Report report = CheckSection5Structure(
      result.full_schedule(), cert.instance, m, options.alpha, cert.opt / 2);
  EXPECT_TRUE(report.all_hold()) << report.violation;
  EXPECT_LE(report.max_batch_width, m / options.alpha);
  EXPECT_GT(report.checks, 0);
  // With only two concurrent tails on half the machine, contention
  // should be rare on this family.
  EXPECT_LT(report.tail_contention_share, 0.5) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Section5SweepTest,
                         ::testing::Combine(::testing::Values(8, 16, 32),
                                            ::testing::Values(1, 2, 3)));

TEST(Section5, DetectsWidthCapViolation) {
  // A fabricated schedule that gives one batch the whole machine.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(8), 0));
  Schedule schedule(8);
  for (NodeId v = 0; v < 8; ++v) schedule.place(1, SubjobRef{0, v});
  const Section5Report report =
      CheckSection5Structure(schedule, instance, 8, 4, 2);
  EXPECT_FALSE(report.width_cap_holds);
  EXPECT_EQ(report.max_batch_width, 8);
}

TEST(Section5, DetectsStarvedTailWithSpareCapacity) {
  // An old batch with plenty of remaining work runs nothing while the
  // machine idles: head-priority broken.
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(12), 0));
  Schedule schedule(8);
  // Width cap p = 2 respected, but the batch crawls at width 1 beyond
  // its head window (2W = 4 slots) while 7 processors idle.
  for (NodeId v = 0; v < 12; ++v) {
    schedule.place(v + 1, SubjobRef{0, v});
  }
  const Section5Report report =
      CheckSection5Structure(schedule, instance, 8, 4, 2);
  EXPECT_FALSE(report.head_priority_holds);
  EXPECT_NE(report.violation.find("processors used"), std::string::npos);
}

TEST(Section5, WidthCapSurvivesGeneralDagMode) {
  // On general DAGs the busy property may lapse (head_priority can
  // fail), but the m/alpha width cap is structural and must hold.
  Rng rng(31);
  Instance instance;
  for (int b = 0; b < 4; ++b) {
    SeriesParallelOptions sp;
    sp.size = 40;
    instance.add_job(Job(MakeSeriesParallelDag(sp, rng), b * 4));
  }
  AlgAScheduler::Options options;
  options.known_opt = 8;
  options.allow_general_dags = true;
  AlgAScheduler scheduler(options);
  const SimResult result = Simulate(instance, 8, scheduler);
  const Section5Report report =
      CheckSection5Structure(result.full_schedule(), instance, 8, 4, 4);
  EXPECT_TRUE(report.width_cap_holds) << report.violation;
  EXPECT_LE(report.max_batch_width, 2);
}

TEST(Section5, EmptyInstanceTrivial) {
  const Section5Report report =
      CheckSection5Structure(Schedule(4), Instance(), 4, 4, 1);
  EXPECT_TRUE(report.all_hold());
}

}  // namespace
}  // namespace otsched
