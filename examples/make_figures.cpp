// make_figures: regenerate the paper's two figures as SVG files.
//
//   $ ./make_figures [output-dir]
//
// Produces:
//   fig1_packing_lpf.svg / fig1_packing_anti.svg — Figure 1: two feasible
//     packings of one job on three processors;
//   fig2_lpf_head_tail.svg — Figure 2: the head/tail shape of an
//     LPF[m/alpha] schedule (head = ragged, tail = packed rectangle);
//   adversary_window.svg — the Section 4 alternation pattern under FIFO.
#include <cstdio>
#include <string>

#include "core/lpf.h"
#include "dag/builders.h"
#include "gen/fifo_adversary.h"
#include "gen/random_trees.h"
#include "opt/single_batch.h"
#include "sched/fifo.h"
#include "sim/engine.h"
#include "sim/svg.h"

using namespace otsched;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";

  // Figure 1.
  {
    const Dag dag = MakeSpineWithBursts(3, 2);
    Instance instance;
    instance.add_job(Job(Dag(dag), 0));
    const DagMetrics metrics = ComputeMetrics(dag);

    SvgOptions options;
    options.cell_size = 22;
    options.label_nodes = true;

    const Schedule lpf = BuildLpfSchedule(dag, metrics, 3);
    options.title = "Figure 1a: LPF packing (" +
                    std::to_string(lpf.horizon()) + " slots = OPT)";
    SaveScheduleSvg(lpf, instance, dir + "/fig1_packing_lpf.svg", options);

    // A clumsier packing: lowest-height-first greedy.
    const Schedule anti = BuildLowestHeightFirstSchedule(dag, metrics, 3);
    options.title = "Figure 1b: height-last packing (" +
                    std::to_string(anti.horizon()) + " slots)";
    SaveScheduleSvg(anti, instance, dir + "/fig1_packing_anti.svg", options);
  }

  // Figure 2.
  {
    const int m = 16;
    Rng rng(42);
    const Dag big = MakeAttachmentTree(400, 0.6, rng);
    Instance instance;
    instance.add_job(Job(Dag(big), 0));
    const Time opt = SingleBatchOpt(big, m);
    const Schedule reduced = BuildLpfSchedule(big, m / 4);
    SvgOptions options;
    options.cell_size = 8;
    options.title = "Figure 2: LPF[m/4] head (first OPT=" +
                    std::to_string(opt) + " slots) + packed tail";
    SaveScheduleSvg(reduced, instance, dir + "/fig2_lpf_head_tail.svg",
                    options);
  }

  // The Section 4 alternation under FIFO.
  {
    LowerBoundSimOptions lb;
    lb.m = 12;
    lb.num_jobs = 30;
    const AdversarialInstance adv = MakeAdversarialInstance(lb);
    FifoScheduler::Options avoid;
    avoid.tie_break = FifoTieBreak::kAvoidMarked;
    avoid.deprioritize = [&adv](JobId job, NodeId node) {
      return adv.is_key(job, node);
    };
    FifoScheduler fifo(std::move(avoid));
    const SimResult run = Simulate(adv.instance, 12, fifo);
    SvgOptions options;
    options.cell_size = 10;
    // Full-record run: the SVG renderer walks the materialized schedule.
    options.to_slot = 80;
    options.title = "Section 4 adversary vs FIFO: full slot / key slot "
                    "alternation";
    SaveScheduleSvg(run.full_schedule(), adv.instance,
                    dir + "/adversary_window.svg", options);
  }

  std::printf(
      "wrote fig1_packing_lpf.svg, fig1_packing_anti.svg,\n"
      "      fig2_lpf_head_tail.svg, adversary_window.svg under %s\n",
      dir.c_str());
  return 0;
}
