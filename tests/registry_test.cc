// Tests for sched/registry.h — the single policy-construction API: name
// lookup, legacy-rename diagnostics, listing, applicability gating, and
// that every spec actually constructs a runnable scheduler.
#include "gtest_compat.h"

#include <set>
#include <string_view>
#include <utility>

#include "dag/builders.h"
#include "sched/registry.h"

namespace otsched {
namespace {

TEST(Registry, NamesAreUniqueAndListed) {
  const std::vector<std::string> names = ListPolicyNames();
  EXPECT_EQ(names.size(), AllPolicies().size());
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_TRUE(unique.count("fifo/first-ready"));
  EXPECT_TRUE(unique.count("alg-a/general"));
  EXPECT_TRUE(unique.count("alg-a/semi-batched"));
}

TEST(Registry, LegacySpellingsAreRejected) {
  // The PR-3 aliases were removed: FindPolicy/MakePolicy accept registry
  // names only.
  for (const char* legacy : {"fifo", "fifo-random", "fifo-lpf", "equi",
                             "srpt", "alg-a", "alg-a-semibatched"}) {
    EXPECT_EQ(FindPolicy(legacy), nullptr) << legacy;
    EXPECT_EQ(MakePolicy(legacy), nullptr) << legacy;
  }
  EXPECT_EQ(FindPolicy("no-such-policy"), nullptr);
  EXPECT_EQ(MakePolicy("no-such-policy"), nullptr);
}

TEST(Registry, EverySpecConstructsARunnableScheduler) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  instance.add_job(Job(MakeStar(3), 1));
  for (const PolicySpec& spec : AllPolicies()) {
    // Semi-batched Algorithm A needs a certified instance; constructing it
    // is still exercised via the factory.
    std::unique_ptr<Scheduler> scheduler =
        spec.needs_semi_batched ? spec.make_semi_batched(2) : spec.make(7);
    ASSERT_NE(scheduler, nullptr) << spec.name;
    EXPECT_FALSE(scheduler->name().empty()) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    if (PolicyApplies(spec, instance.all_out_forests(),
                      /*semi_batched_certified=*/false, /*m=*/2)) {
      const SimResult result = Simulate(instance, 2, *scheduler);
      EXPECT_TRUE(result.flows.all_completed) << spec.name;
    }
  }
}

TEST(Registry, MakePolicyBuildsFromCanonicalNames) {
  Instance instance;
  instance.add_job(Job(MakeChain(4), 0));
  instance.add_job(Job(MakeStar(4), 0));
  auto policy = MakePolicy("fifo/first-ready", 3);
  ASSERT_NE(policy, nullptr);
  const SimResult result = Simulate(instance, 2, *policy);
  EXPECT_TRUE(result.flows.all_completed);
}

TEST(Registry, PolicyAppliesGatesPreconditions) {
  const PolicySpec* alg_a = FindPolicy("alg-a/general");
  ASSERT_NE(alg_a, nullptr);
  EXPECT_TRUE(PolicyApplies(*alg_a, /*all_out_forests=*/true,
                            /*semi_batched_certified=*/false, /*m=*/4));
  EXPECT_FALSE(PolicyApplies(*alg_a, /*all_out_forests=*/false,
                             /*semi_batched_certified=*/false, /*m=*/4));
  EXPECT_FALSE(PolicyApplies(*alg_a, /*all_out_forests=*/true,
                             /*semi_batched_certified=*/false, /*m=*/6));

  const PolicySpec* semi = FindPolicy("alg-a/semi-batched");
  ASSERT_NE(semi, nullptr);
  EXPECT_FALSE(PolicyApplies(*semi, /*all_out_forests=*/true,
                             /*semi_batched_certified=*/false, /*m=*/4));
  EXPECT_TRUE(PolicyApplies(*semi, /*all_out_forests=*/true,
                            /*semi_batched_certified=*/true, /*m=*/4));
}

}  // namespace
}  // namespace otsched
