// Tests for sched/registry.h — the single policy-construction API: name
// lookup, legacy-rename diagnostics, listing, the precondition gate, and
// that every spec actually constructs a runnable scheduler.
#include "gtest_compat.h"

#include <set>
#include <string_view>
#include <utility>

#include "core/alg_a.h"
#include "dag/builders.h"
#include "sched/registry.h"

namespace otsched {
namespace {

TEST(Registry, NamesAreUniqueAndListed) {
  std::set<std::string> unique;
  for (const PolicySpec& spec : AllPolicies()) unique.insert(spec.name);
  EXPECT_EQ(unique.size(), AllPolicies().size());
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
    std::unique_ptr<Scheduler> scheduler = spec.make(7);
    ASSERT_NE(scheduler, nullptr) << spec.name;
    EXPECT_FALSE(scheduler->name().empty()) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    if (PolicyError(spec, instance, /*m=*/2).empty()) {
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

TEST(Registry, PolicyErrorGatesPreconditions) {
  Instance forest;
  forest.add_job(Job(MakeStar(3), 0));
  forest.add_job(Job(MakeChain(2), 2));
  Instance joined = forest;
  joined.add_job(Job(MakeForkJoin(2), 4));

  const PolicySpec* alg_a = FindPolicy("alg-a/general");
  ASSERT_NE(alg_a, nullptr);
  EXPECT_EQ(alg_a->alpha, kAlgAAlpha);
  EXPECT_EQ(PolicyError(*alg_a, forest, 4), "");
  EXPECT_EQ(PolicyError(*alg_a, joined, 4),
            "policy 'alg-a/general' needs every job to be an out-forest "
            "(Section 5)");
  EXPECT_EQ(PolicyError(*alg_a, forest, 6),
            "policy 'alg-a/general' needs alpha = 4 to divide m (Section 5), "
            "got m = 6");
  EXPECT_EQ(PolicyError(*alg_a, 8), "");
  EXPECT_NE(PolicyJobError(*alg_a, MakeForkJoin(2), 0), "");

  const std::string off_grid =
      "semi-batched case needs an even known-opt and every release a "
      "multiple of known-opt / 2";
  const PolicySpec* semi = FindPolicy("alg-a/semi-batched");
  ASSERT_NE(semi, nullptr);
  EXPECT_TRUE(semi->needs_known_opt);
  EXPECT_EQ(PolicyError(*semi, forest, 4, /*known_opt=*/4), "");
  EXPECT_EQ(PolicyError(*semi, forest, 4), "");  // the fallback of 2
  EXPECT_EQ(PolicyError(*semi, forest, 4, /*known_opt=*/3), off_grid);
  EXPECT_EQ(PolicyError(*semi, forest, 4, /*known_opt=*/8), off_grid);
  EXPECT_EQ(PolicyJobError(*semi, MakeChain(2), 3, /*known_opt=*/6), "");
  EXPECT_EQ(PolicyJobError(*semi, MakeChain(2), 2, /*known_opt=*/6),
            off_grid);
  EXPECT_NE(PolicyError(*semi, joined, 4, /*known_opt=*/4), "");

  // Every other policy runs anything.
  for (const PolicySpec& spec : AllPolicies()) {
    if (spec.alpha > 0) continue;
    EXPECT_FALSE(spec.needs_known_opt) << spec.name;
    EXPECT_EQ(PolicyError(spec, joined, 3, /*known_opt=*/3), "") << spec.name;
  }
}

}  // namespace
}  // namespace otsched
