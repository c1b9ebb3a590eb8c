// Tests for job/serialize.h: instance round-trips.
#include "gtest_compat.h"

#include <cstdio>

#include "dag/builders.h"
#include "gen/fifo_adversary.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "sched/fifo.h"
#include "sim/engine.h"

namespace otsched {
namespace {

bool SameInstance(const Instance& a, const Instance& b) {
  if (a.job_count() != b.job_count()) return false;
  for (JobId i = 0; i < a.job_count(); ++i) {
    const Job& ja = a.job(i);
    const Job& jb = b.job(i);
    if (ja.release() != jb.release()) return false;
    if (ja.dag().node_count() != jb.dag().node_count()) return false;
    if (ja.dag().edge_count() != jb.dag().edge_count()) return false;
    for (NodeId v = 0; v < ja.dag().node_count(); ++v) {
      std::vector<NodeId> ca(ja.dag().children(v).begin(),
                             ja.dag().children(v).end());
      std::vector<NodeId> cb(jb.dag().children(v).begin(),
                             jb.dag().children(v).end());
      std::sort(ca.begin(), ca.end());
      std::sort(cb.begin(), cb.end());
      if (ca != cb) return false;
    }
  }
  return true;
}

TEST(InstanceSerialize, RoundTripBasic) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0, "alpha"));
  instance.add_job(Job(MakeStar(4), 7, "beta"));
  instance.set_name("basic pair");
  const Instance loaded = InstanceFromText(InstanceToText(instance));
  EXPECT_TRUE(SameInstance(instance, loaded));
  EXPECT_EQ(loaded.name(), "basic pair");
  EXPECT_EQ(loaded.job(0).name(), "alpha");
}

TEST(InstanceSerialize, RoundTripRandomWorkload) {
  Rng rng(5);
  Instance instance;
  for (int i = 0; i < 12; ++i) {
    instance.add_job(Job(MakeTree(static_cast<TreeFamily>(i % 4), 40, rng),
                         3 * i));
  }
  EXPECT_TRUE(SameInstance(instance,
                           InstanceFromText(InstanceToText(instance))));
}

TEST(InstanceSerialize, RoundTripPreservesSchedulerBehaviour) {
  // The real contract: a replayed instance produces identical flows.
  LowerBoundSimOptions options;
  options.m = 4;
  options.num_jobs = 10;
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  const Instance loaded =
      InstanceFromText(InstanceToText(adv.instance));

  FifoScheduler a;
  FifoScheduler b;
  EXPECT_EQ(Simulate(adv.instance, 4, a).flows.max_flow,
            Simulate(loaded, 4, b).flows.max_flow);
}

TEST(InstanceSerialize, FileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/otsched_instance_test.txt";
  Instance instance;
  instance.add_job(Job(MakeCompleteTree(2, 3), 2));
  SaveInstance(instance, path);
  const Instance loaded = LoadInstance(path);
  EXPECT_TRUE(SameInstance(instance, loaded));
  std::remove(path.c_str());
}

TEST(InstanceSerialize, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\notsched-instance-v1\n\nname demo\n"
      "job 3 2 j0  # header comment\n0 1\nend\n";
  const Instance loaded = InstanceFromText(text);
  EXPECT_EQ(loaded.job_count(), 1);
  EXPECT_EQ(loaded.job(0).release(), 3);
  EXPECT_EQ(loaded.job(0).work(), 2);
}

TEST(InstanceSerialize, CyclicJobsRejectedWithALineNumber) {
  std::string error;
  EXPECT_FALSE(TryInstanceFromText("otsched-instance-v1\njob 0 1\nend\n"
                                   "job 0 3\n0 1\n1 2\n2 1\nend\n",
                                   &error));
  EXPECT_EQ(error,
            "instance line 8: the job started at line 4 has a directed cycle");
  EXPECT_FALSE(TryInstanceFromText("otsched-instance-v1\njob 0 2\n0 0\nend\n",
                                   &error));
  EXPECT_EQ(error, "instance line 3: edge 0 -> 0 is a self-loop, a directed "
                   "cycle");
}

TEST(InstanceSerializeDeath, BadMagicRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(InstanceFromText("bogus-header\n"), "magic");
}

TEST(InstanceSerializeDeath, UnterminatedJobRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(InstanceFromText("otsched-instance-v1\njob 0 2\n0 1\n"),
               "unterminated");
}

}  // namespace
}  // namespace otsched
