// Tests for job/job.h and job/instance.h.
#include <gtest/gtest.h>

#include "dag/builders.h"
#include "job/instance.h"

namespace otsched {
namespace {

TEST(Job, BasicAccessors) {
  Job job(MakeChain(5), 7, "chain");
  EXPECT_EQ(job.work(), 5);
  EXPECT_EQ(job.span(), 5);
  EXPECT_EQ(job.release(), 7);
  EXPECT_EQ(job.name(), "chain");
}

TEST(Job, MetricsAreCachedAndConsistent) {
  Job job(MakeStar(3), 0);
  const DagMetrics& first = job.metrics();
  const DagMetrics& second = job.metrics();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.span, 2);
}

TEST(Instance, AccountingAndOrder) {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 10));
  instance.add_job(Job(MakeStar(2), 0));
  instance.add_job(Job(MakeChain(3), 10));

  EXPECT_EQ(instance.job_count(), 3);
  EXPECT_EQ(instance.total_work(), 8);
  EXPECT_EQ(instance.max_span(), 3);
  EXPECT_EQ(instance.min_release(), 0);
  EXPECT_EQ(instance.max_release(), 10);

  const auto order = instance.release_order();
  EXPECT_EQ(order, (std::vector<JobId>{1, 0, 2}));  // stable on ties
}

TEST(Instance, OutForestDetection) {
  Instance forests;
  forests.add_job(Job(MakeChain(2), 0));
  forests.add_job(Job(MakeParallelBlob(3), 0));
  EXPECT_TRUE(forests.all_out_forests());

  Instance mixed;
  mixed.add_job(Job(MakeForkJoin(2), 0));
  EXPECT_FALSE(mixed.all_out_forests());
}

TEST(Instance, BatchedPredicate) {
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 6));
  instance.add_job(Job(MakeChain(1), 12));
  EXPECT_TRUE(instance.is_batched(6));
  EXPECT_TRUE(instance.is_batched(3));
  EXPECT_FALSE(instance.is_batched(5));
}

}  // namespace
}  // namespace otsched
