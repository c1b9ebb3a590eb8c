// adversary_demo: watch FIFO lose to the Section 4 adaptive adversary.
//
// Builds the lower-bound family at a chosen m, reports how arbitrary FIFO
// degrades (queue growth, max flow vs the certified OPT <= m+1), then
// shows that (a) a clairvoyant FIFO variant that runs key subjobs first
// and (b) Algorithm A are both immune on the very same instance.
//
//   $ ./adversary_demo [m] [jobs]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/alg_a_full.h"
#include "gen/fifo_adversary.h"
#include "sched/fifo.h"
#include "sim/renderer.h"
#include "sim/validator.h"

using namespace otsched;

int main(int argc, char** argv) {
  const int m = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::int64_t jobs = argc > 2 ? std::atoll(argv[2]) : 40 * m;

  LowerBoundSimOptions options;
  options.m = m;
  options.num_jobs = jobs;
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  const auto& run = adv.fifo_run;

  std::printf("Section 4 adversary, m=%d, %lld jobs released every %d slots\n",
              m, static_cast<long long>(jobs), m + 1);
  std::printf("certified OPT <= %lld (key-spine witness schedule)\n\n",
              static_cast<long long>(run.certified_opt_upper));

  std::printf("arbitrary FIFO (co-simulated, adversary fixes layer sizes):\n");
  std::printf("  max flow           : %lld  (%.2f x OPT-upper)\n",
              static_cast<long long>(run.max_flow),
              static_cast<double>(run.max_flow) /
                  static_cast<double>(run.certified_opt_upper));
  std::printf("  peak queue length  : %lld jobs alive at once\n",
              static_cast<long long>(run.max_alive));
  std::printf("  paper's growth term: lg m - lg lg m = %.2f\n\n",
              std::log2(static_cast<double>(m)) -
                  std::log2(std::log2(static_cast<double>(m))));

  // Clairvoyant FIFO: keys head the tallest subtrees, so the LPF-height
  // tie-break schedules them first and the trap never springs.
  FifoScheduler::Options lpf_options;
  lpf_options.tie_break = FifoTieBreak::kLpfHeight;
  FifoScheduler lpf_fifo(std::move(lpf_options));
  const SimResult fixed = Simulate(adv.instance, m, lpf_fifo);
  std::printf("clairvoyant FIFO (LPF-height tie-break), same instance:\n");
  std::printf("  max flow           : %lld  (%.2f x OPT-upper)\n\n",
              static_cast<long long>(fixed.flows.max_flow),
              static_cast<double>(fixed.flows.max_flow) /
                  static_cast<double>(run.certified_opt_upper));

  // Algorithm A (semi-batched: releases are multiples of m+1).
  AlgAScheduler::Options a_options;
  a_options.known_opt = 2 * (m + 1);
  AlgAScheduler alg_a(a_options);
  const SimResult a_result = Simulate(adv.instance, m, alg_a);
  std::printf("Algorithm A (Section 5, alpha=4, known OPT):\n");
  std::printf("  max flow           : %lld  (%.2f x OPT-upper)\n\n",
              static_cast<long long>(a_result.flows.max_flow),
              static_cast<double>(a_result.flows.max_flow) /
                  static_cast<double>(run.certified_opt_upper));

  std::printf("FIFO's first 40 slots (rows=processors, letters=jobs):\n");
  FifoScheduler::Options avoid;
  avoid.tie_break = FifoTieBreak::kAvoidMarked;
  avoid.deprioritize = [&adv](JobId job, NodeId node) {
    return adv.is_key(job, node);
  };
  FifoScheduler fifo(std::move(avoid));
  // Full-record run: the ASCII renderer walks the materialized schedule.
  const SimResult replay = Simulate(adv.instance, m, fifo);
  RenderOptions render;
  render.to_slot = 40;
  std::printf("%s", RenderSchedule(replay.full_schedule(), adv.instance,
                                   render).c_str());
  std::printf("\nNote the alternation: a full slot (the parallel sublayer)\n"
              "followed by a nearly idle slot (the key subjob) — the shape\n"
              "Lemma 4.1's accounting is built on.\n");
  return 0;
}
