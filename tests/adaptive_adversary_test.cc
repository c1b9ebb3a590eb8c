// Tests for advsim/adaptive.h: the generalized adaptive adversary.
#include "gtest_compat.h"

#include "advsim/adaptive.h"
#include "dag/validate.h"
#include "opt/brute_force.h"
#include "opt/lower_bounds.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sched/registry.h"
#include "sched/round_robin.h"
#include "sim/faults.h"
#include "sim/validator.h"

namespace otsched {
namespace {

TEST(AdaptiveAdversary, ProducesConsistentInstanceForFifo) {
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 8;
  options.num_jobs = 40;
  const AdaptiveAdversaryResult result =
      RunAdaptiveAdversary(fifo, options);

  // The runner itself validates consistency; double-check here plus
  // structure: every job is an out-forest of m layers, keys wired.
  EXPECT_TRUE(
      ValidateSchedule(result.full_schedule(), result.instance).feasible);
  EXPECT_TRUE(result.instance.all_out_forests());
  EXPECT_EQ(result.instance.job_count(), 40);
  for (const auto& keys : result.keys) {
    EXPECT_EQ(keys.size(), 8u);  // layers_per_job = m
  }
  EXPECT_TRUE(result.flows.all_completed);
  EXPECT_EQ(result.certified_opt_upper, 10);  // m + 2
}

TEST(AdaptiveAdversary, KeyAvoidingReplayMatchesExactly) {
  // Cross-validation mirroring lbsim's: replay the materialized instance
  // through the STANDARD engine with the key-avoiding FIFO tie-break
  // (the realization of "arbitrary FIFO against this adversary" on a
  // fixed instance).  Per-slot counts and layer completion times then
  // coincide with the adaptive run, so flows match exactly.
  for (int m : {4, 8}) {
    FifoScheduler adaptive_fifo;
    AdaptiveAdversaryOptions options;
    options.m = m;
    options.num_jobs = 25;
    const AdaptiveAdversaryResult adaptive =
        RunAdaptiveAdversary(adaptive_fifo, options);

    FifoScheduler::Options avoid;
    avoid.tie_break = FifoTieBreak::kAvoidMarked;
    avoid.deprioritize = [&adaptive](JobId job, NodeId node) {
      const auto& keys = adaptive.keys[static_cast<std::size_t>(job)];
      return std::find(keys.begin(), keys.end(), node) != keys.end();
    };
    FifoScheduler replay_fifo(std::move(avoid));
    const SimResult replay = Simulate(adaptive.instance, m, replay_fifo);
    for (JobId i = 0; i < adaptive.instance.job_count(); ++i) {
      EXPECT_EQ(replay.flows.flow[static_cast<std::size_t>(i)],
                adaptive.flows.flow[static_cast<std::size_t>(i)])
          << "m=" << m << " job " << i;
    }
  }
}

TEST(AdaptiveAdversary, ObliviousReplayCanOnlyDoBetter) {
  // Without the adversary in the loop, arbitrary FIFO on the FIXED
  // instance may stumble onto keys early and finish sooner — the
  // adaptive run is the worst case over tie-breaks.
  FifoScheduler adaptive_fifo;
  AdaptiveAdversaryOptions options;
  options.m = 8;
  options.num_jobs = 40;
  const AdaptiveAdversaryResult adaptive =
      RunAdaptiveAdversary(adaptive_fifo, options);

  FifoScheduler replay_fifo;
  const SimResult replay = Simulate(adaptive.instance, 8, replay_fifo);
  EXPECT_LE(replay.flows.max_flow, adaptive.max_flow);
}

TEST(AdaptiveAdversary, CertificateHoldsOnTinyInstance) {
  // m=2: 2 layers of 3 subjobs per job, gap 4.  Brute-force the true OPT
  // of a small materialized instance and check it within the
  // certificate.
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 2;
  options.num_jobs = 3;
  const AdaptiveAdversaryResult result = RunAdaptiveAdversary(fifo, options);
  ASSERT_LE(result.instance.total_work(), 30);
  const Time opt = BruteForceOpt(result.instance, 2);
  EXPECT_LE(opt, result.certified_opt_upper);
  EXPECT_GE(opt, MaxFlowLowerBound(result.instance, 2));
}

TEST(AdaptiveAdversary, HurtsEveryNonClairvoyantBaseline) {
  // The generalized construction should push every non-clairvoyant
  // policy visibly above the certificate (how MUCH is experiment E16).
  AdaptiveAdversaryOptions options;
  options.m = 16;
  options.num_jobs = 120;

  FifoScheduler fifo;
  ListGreedyScheduler greedy(3);
  RoundRobinScheduler equi;
  for (Scheduler* scheduler :
       {static_cast<Scheduler*>(&fifo), static_cast<Scheduler*>(&greedy),
        static_cast<Scheduler*>(&equi)}) {
    const AdaptiveAdversaryResult result =
        RunAdaptiveAdversary(*scheduler, options);
    const double ratio =
        static_cast<double>(result.max_flow) /
        static_cast<double>(result.certified_opt_upper);
    EXPECT_GT(ratio, 1.3) << scheduler->name();
  }
}

/// FNV-1a 64 over the per-job flows, eight little-endian bytes each.
std::uint64_t HashFlows(const std::vector<Time>& flows) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const Time flow : flows) {
    const std::uint64_t bits = static_cast<std::uint64_t>(flow);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(AdaptiveAdversary, GoldenFlowsPerPolicy) {
  // Pins the per-job flows of every non-clairvoyant registry policy
  // against the adversary, healthy and under a capacity-fault model, so
  // any change to how the adversary is driven must reproduce them.  The
  // hashes were recorded with the adversary's former standalone engine.
  struct Golden {
    const char* policy;
    int m;
    bool faulted;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"fifo/first-ready", 3, false, 0x369f63114db7c883ULL},
      {"fifo/first-ready", 3, true, 0x0006f023981c9723ULL},
      {"fifo/first-ready", 4, false, 0x65a95baca2289c64ULL},
      {"fifo/first-ready", 4, true, 0x7eea692e20a60593ULL},
      {"fifo/first-ready", 8, false, 0x59cd1f0641aee9e7ULL},
      {"fifo/first-ready", 8, true, 0xbae34c2476734ed7ULL},
      {"fifo/last-ready", 3, false, 0x369f63114db7c883ULL},
      {"fifo/last-ready", 3, true, 0x0006f023981c9723ULL},
      {"fifo/last-ready", 4, false, 0x65a95baca2289c64ULL},
      {"fifo/last-ready", 4, true, 0x7eea692e20a60593ULL},
      {"fifo/last-ready", 8, false, 0x59cd1f0641aee9e7ULL},
      {"fifo/last-ready", 8, true, 0xbae34c2476734ed7ULL},
      {"fifo/random", 3, false, 0x369f63114db7c883ULL},
      {"fifo/random", 3, true, 0x0006f023981c9723ULL},
      {"fifo/random", 4, false, 0x65a95baca2289c64ULL},
      {"fifo/random", 4, true, 0x7eea692e20a60593ULL},
      {"fifo/random", 8, false, 0x59cd1f0641aee9e7ULL},
      {"fifo/random", 8, true, 0xbae34c2476734ed7ULL},
      {"list-greedy", 3, false, 0x86a124ea98979783ULL},
      {"list-greedy", 3, true, 0x2668c39b38156431ULL},
      {"list-greedy", 4, false, 0x59fec1f8636b5146ULL},
      {"list-greedy", 4, true, 0x7042ba7db9511abdULL},
      {"list-greedy", 8, false, 0x52e4732da83e2042ULL},
      {"list-greedy", 8, true, 0x4c1b0d85ea46ea62ULL},
      {"round-robin-equi", 3, false, 0x369f63114db7c883ULL},
      {"round-robin-equi", 3, true, 0x0ce1ebb621f52c8bULL},
      {"round-robin-equi", 4, false, 0x37551c78ae576d06ULL},
      {"round-robin-equi", 4, true, 0x7ec8d6eb90103ea4ULL},
      {"round-robin-equi", 8, false, 0x59444ad42c042a00ULL},
      {"round-robin-equi", 8, true, 0xdd0b44e6645731abULL},
  };
  std::string error;
  const std::optional<FaultSpec> blip =
      ParseFaultSpec("random-blip:3:0.3", &error);
  ASSERT_TRUE(blip.has_value()) << error;
  for (const Golden& golden : goldens) {
    const std::unique_ptr<Scheduler> scheduler = MakePolicy(golden.policy);
    ASSERT_NE(scheduler, nullptr) << golden.policy;
    AdaptiveAdversaryOptions options;
    options.m = golden.m;
    options.num_jobs = 5 * golden.m;
    RunContext context{FlowOnlyOptions(), nullptr};
    if (golden.faulted) context.options.faults = *blip;
    const AdaptiveAdversaryResult result =
        RunAdaptiveAdversary(*scheduler, options, context);
    EXPECT_EQ(HashFlows(result.flows.flow), golden.hash)
        << golden.policy << " m=" << golden.m
        << (golden.faulted ? " random-blip:3:0.3" : " healthy");
  }
}

TEST(AdaptiveAdversaryDeath, RejectsClairvoyantSchedulers) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  FifoScheduler::Options lpf;
  lpf.tie_break = FifoTieBreak::kLpfHeight;
  FifoScheduler clairvoyant(std::move(lpf));
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 2;
  EXPECT_DEATH(RunAdaptiveAdversary(clairvoyant, options),
               "non-clairvoyant");
}

TEST(AdaptiveAdversary, KeysAreTheLastFinishedSubjobs) {
  FifoScheduler fifo;
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 6;
  const AdaptiveAdversaryResult result = RunAdaptiveAdversary(fifo, options);

  // Recompute per-node completion slots from the schedule and check each
  // key completed no earlier than every other subjob of its layer.
  for (JobId j = 0; j < result.instance.job_count(); ++j) {
    std::vector<Time> done(
        static_cast<std::size_t>(result.instance.job(j).dag().node_count()),
        kNoTime);
    for (Time t = 1; t <= result.full_schedule().horizon(); ++t) {
      for (const SubjobRef& ref : result.full_schedule().at(t)) {
        if (ref.job == j) done[static_cast<std::size_t>(ref.node)] = t;
      }
    }
    const int width = 5;  // m + 1
    for (std::size_t layer = 0;
         layer < result.keys[static_cast<std::size_t>(j)].size(); ++layer) {
      const NodeId key = result.keys[static_cast<std::size_t>(j)][layer];
      for (NodeId v = static_cast<NodeId>(layer) * width;
           v < static_cast<NodeId>(layer + 1) * width; ++v) {
        EXPECT_LE(done[static_cast<std::size_t>(v)],
                  done[static_cast<std::size_t>(key)])
            << "job " << j << " layer " << layer;
      }
    }
  }
}

}  // namespace
}  // namespace otsched
