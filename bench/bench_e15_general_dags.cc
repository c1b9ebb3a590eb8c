// E15 — the conclusion's open question, measured: Algorithm A's shaping
// recipe applied verbatim to series-parallel / general DAGs.
//
// The paper: "while longest path first is an optimal heuristic for trees
// for intra-job scheduling, there is no such optimal heuristic for DAGs.
// Therefore, shaping a DAG is significantly more challenging."  This
// bench runs the heuristic extension (LPF shaping + MC replay, out-forest
// precondition dropped) on batched series-parallel workloads and reports:
//   * whether LPF[m] still matches the depth-profile bound (it is only a
//     LOWER bound for DAGs — gaps mark where Corollary 5.4 fails),
//   * Algorithm A's achieved ratio (vs conservative lower bounds),
//   * MC busy violations (where the Lemma 5.5 guarantee breaks).
#include <cstdio>

#include "analysis/ratio.h"
#include "analysis/sweep.h"
#include "common/table.h"
#include "core/alg_a_full.h"
#include "core/lpf.h"
#include "gen/arrivals.h"
#include "gen/recursive.h"
#include "gen/series_parallel.h"
#include "opt/lower_bounds.h"
#include "sched/fifo.h"

using namespace otsched;

int main() {
  std::printf("== E15: the general-DAG frontier (extension) ==\n\n");

  // Part 1: how often does LPF stay optimal on series-parallel DAGs?
  {
    std::printf("LPF[m] vs the depth-profile lower bound on random\n"
                "map-reduce pipelines and series-parallel DAGs (the bound\n"
                "is only a lower bound for DAGs; gaps mark where tree-style\n"
                "shaping falls short):\n\n");
    TextTable table({"m", "exact", "gap<=1 slot", "worst gap (slots)"});
    for (int m : {2, 4, 8, 16}) {
      int exact = 0;
      int near = 0;
      Time worst_gap = 0;
      for (int seed = 0; seed < 60; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 887 + m);
        Dag dag;
        if (seed % 2 == 0) {
          dag = MakeMapReducePipeline(
              2 + static_cast<int>(rng.next_below(4)), 3 * m, rng);
        } else {
          SeriesParallelOptions sp;
          sp.size = static_cast<NodeId>(6 * m);
          sp.parallel_p = 0.6;
          dag = MakeSeriesParallelDag(sp, rng);
        }
        Job job(Dag(dag), 0);
        const Time lower = DepthProfileBound(job, m);
        const Schedule s = BuildLpfSchedule(dag, m);
        const Time gap = s.horizon() - lower;
        if (gap == 0) ++exact;
        if (gap <= 1) ++near;
        worst_gap = std::max(worst_gap, gap);
      }
      table.row(m, exact, near, worst_gap);
    }
    table.print();
  }

  // Part 2: Algorithm A (heuristic mode) vs FIFO on batched
  // series-parallel streams.
  std::printf("\nAlgorithm A (allow_general_dags) vs FIFO, batched\n"
              "map-reduce streams (ratios vs conservative lower bounds):\n\n");
  struct Row {
    int m;
    double fifo;
    double alg_a;
    double alg_a_cert;
    double fifo_sp;
    double alg_a_sp;
    double alg_a_sp_cert;
    std::int64_t mc_violations;
  };
  const std::vector<int> ms = {8, 16, 32, 64};
  const auto rows = BatchRunner().Map<Row>(ms.size(), [&](std::size_t i) {
    const int m = ms[i];
    Row row{m, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0};
    for (int seed = 0; seed < 3; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 119 + m);
      Instance mapreduce = MakePeriodicArrivals(
          10, 8,
          [m](std::int64_t, Rng& r) {
            return MakeMapReducePipeline(
                2 + static_cast<int>(r.next_below(3)), 2 * m, r);
          },
          rng);
      Instance sp = MakePeriodicArrivals(
          10, 8,
          [m](std::int64_t, Rng& r) {
            SeriesParallelOptions options;
            options.size = static_cast<NodeId>(4 * m);
            options.parallel_p = 0.6;
            return MakeSeriesParallelDag(options, r);
          },
          rng);
      {
        FifoScheduler fifo1;
        FifoScheduler fifo2;
        row.fifo =
            std::max(row.fifo, MeasureRatio(mapreduce, m, fifo1).ratio);
        row.fifo_sp =
            std::max(row.fifo_sp, MeasureRatio(sp, m, fifo2).ratio);
      }
      {
        AlgAScheduler::Options options;
        options.beta = 16;
        options.allow_general_dags = true;
        AlgAScheduler alg_a1(options);
        AlgAScheduler alg_a2(options);
        // Heuristic denominators can be loose on DAGs; the attached
        // max-flow certificate (opt/flow_network) is verified in-process
        // and sound on arbitrary DAGs, so the *_cert ratios are true
        // upper bounds on Algorithm A's competitive ratio here.
        RatioMeasurement a1 = MeasureRatio(mapreduce, m, alg_a1);
        AttachCertificate(a1, mapreduce);
        RatioMeasurement a2 = MeasureRatio(sp, m, alg_a2);
        AttachCertificate(a2, sp);
        row.alg_a = std::max(row.alg_a, a1.ratio);
        row.alg_a_cert = std::max(row.alg_a_cert, a1.ratio_vs_certificate);
        row.alg_a_sp = std::max(row.alg_a_sp, a2.ratio);
        row.alg_a_sp_cert =
            std::max(row.alg_a_sp_cert, a2.ratio_vs_certificate);
        row.mc_violations +=
            alg_a1.mc_busy_violations() + alg_a2.mc_busy_violations();
      }
    }
    return row;
  });

  TextTable table({"m", "FIFO mapred*", "AlgA mapred*", "AlgA mapred^",
                   "FIFO sp*", "AlgA sp*", "AlgA sp^", "MC violations"});
  for (const Row& row : rows) {
    table.row(row.m, row.fifo, row.alg_a, row.alg_a_cert, row.fifo_sp,
              row.alg_a_sp, row.alg_a_sp_cert, row.mc_violations);
  }
  table.print();
  std::printf(
      "\n* conservative lower-bound denominators.\n"
      "^ certified max-flow denominators (opt/flow_network, verified\n"
      "  in-process): sound on general DAGs and never looser than *.\n"
      "paper artifact: the conclusion's open question.  The machinery runs\n"
      "unchanged on general DAGs (every schedule validated), but the\n"
      "guarantees visibly degrade: LPF is no longer always optimal (part\n"
      "1 gaps) and MC's busy property can fail (violations > 0 is allowed\n"
      "here) — quantifying why 'shaping a DAG is significantly more\n"
      "challenging' (Section 1).\n");
  return 0;
}
