// packing_viz: Figure 1 and Figure 2, regenerated.
//
// Figure 1 shows one DAG packed two different ways onto three processors;
// Figure 2 shows the head/tail shape of an LPF schedule on m/alpha
// processors.  This example renders both as ASCII schedules.
//
//   $ ./packing_viz
#include <cstdio>

#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/validate.h"
#include "gen/random_trees.h"
#include "opt/single_batch.h"
#include "sim/renderer.h"
#include "sim/validator.h"

using namespace otsched;

namespace {

// Converts a single-job JobSchedule into an engine Schedule for rendering.
Schedule ToSchedule(const JobSchedule& js, int m) {
  Schedule schedule(m);
  for (Time t = 1; t <= js.length(); ++t) {
    for (NodeId v : js.at(t)) schedule.place(t, SubjobRef{0, v});
  }
  return schedule;
}

}  // namespace

int main() {
  // ---- Figure 1: two packings of one job on 3 processors ----
  // The job: a spine that spawns bursts — plenty of packing freedom.
  const Dag job_dag = MakeSpineWithBursts(3, 2);
  Instance instance;
  instance.add_job(Job(Dag(job_dag), 0, "fig1"));

  std::printf("Figure 1 job: %s\n\n", DescribeShape(job_dag).c_str());

  RenderOptions nodes_view;
  nodes_view.label_nodes = true;

  // Packing A: LPF (height-first) — finishes in OPT slots.
  const JobSchedule lpf3 = BuildLpfSchedule(job_dag, 3);
  std::printf("packing A — LPF on 3 processors (%lld slots, OPT=%lld):\n%s\n",
              static_cast<long long>(lpf3.length()),
              static_cast<long long>(SingleBatchOpt(job_dag, 3)),
              RenderSchedule(ToSchedule(lpf3, 3), instance,
                             nodes_view).c_str());

  // Packing B: anti-LPF (height-LAST greedy) — a feasible but clumsier
  // packing of the same DAG, like Figure 1's second panel.
  const DagMetrics metrics = ComputeMetrics(job_dag);
  JobSchedule clumsy;
  clumsy.p = 3;
  clumsy.slot_of.assign(static_cast<std::size_t>(job_dag.node_count()),
                        kNoTime);
  {
    std::vector<NodeId> pending(
        static_cast<std::size_t>(job_dag.node_count()));
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < job_dag.node_count(); ++v) {
      pending[static_cast<std::size_t>(v)] = job_dag.in_degree(v);
      if (pending[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
    std::int64_t done = 0;
    while (done < job_dag.node_count()) {
      // Lowest height first: the opposite of the paper's LPF heuristic.
      std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
        return metrics.height[static_cast<std::size_t>(a)] <
               metrics.height[static_cast<std::size_t>(b)];
      });
      std::vector<NodeId> slot;
      for (int k = 0; k < 3 && !ready.empty(); ++k) {
        slot.push_back(ready.front());
        ready.erase(ready.begin());
      }
      clumsy.slots.push_back(slot);
      for (NodeId v : slot) {
        clumsy.slot_of[static_cast<std::size_t>(v)] = clumsy.length();
        ++done;
        for (NodeId c : job_dag.children(v)) {
          if (--pending[static_cast<std::size_t>(c)] == 0) {
            ready.push_back(c);
          }
        }
      }
    }
  }
  std::printf("packing B — shortest-path-first on 3 processors (%lld slots):\n%s\n",
              static_cast<long long>(clumsy.length()),
              RenderSchedule(ToSchedule(clumsy, 3), instance,
                             nodes_view).c_str());

  // ---- Figure 2: head/tail of LPF[m/alpha] ----
  const int m = 16;
  const int alpha = 4;
  Rng rng(42);
  const Dag big = MakeAttachmentTree(400, 0.6, rng);
  const Time opt = SingleBatchOpt(big, m);
  const JobSchedule reduced = BuildLpfSchedule(big, m / alpha);
  const HeadTailShape shape = AnalyzeHeadTail(reduced, opt);

  std::printf(
      "Figure 2: LPF[m/alpha] of a 400-node out-tree (m=%d, alpha=%d)\n"
      "  OPT on m processors : %lld\n"
      "  schedule length     : %lld\n"
      "  head (first OPT)    : %lld slots, arbitrary shape\n"
      "  tail                : %lld slots, fully packed: %s (bound: "
      "(alpha-1)*OPT = %lld)\n\n",
      m, alpha, static_cast<long long>(opt),
      static_cast<long long>(reduced.length()),
      static_cast<long long>(shape.head_len),
      static_cast<long long>(shape.tail_len),
      shape.underfull_tail_slots.empty() ? "yes" : "NO",
      static_cast<long long>((alpha - 1) * opt));

  Instance big_instance;
  big_instance.add_job(Job(Dag(big), 0, "fig2"));
  std::printf("per-slot width profile (head | tail):\n%s",
              RenderJobProfile(ToSchedule(reduced, m / alpha), 0).c_str());
  return 0;
}
