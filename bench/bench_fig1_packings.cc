// E1 — Figure 1: two feasible packings of one job (DAG) on three
// processors, respecting the DAG structure.
//
// The paper's figure illustrates the scheduler-as-Tetris-player framing:
// the same job admits tight and loose packings.  We regenerate it with a
// height-first (LPF) packing and a height-last packing of a fork-heavy
// out-tree, validate both against the Section 3 axioms, and report their
// lengths against the exact OPT of Corollary 5.4.
#include <algorithm>
#include <cstdio>

#include "common/table.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "dag/metrics.h"
#include "dag/validate.h"
#include "opt/single_batch.h"
#include "sim/renderer.h"
#include "sim/validator.h"

using namespace otsched;

int main() {
  std::printf("== E1 / Figure 1: two packings of one job on 3 processors ==\n\n");
  const int m = 3;
  const Dag dag = MakeSpineWithBursts(3, 2);
  const DagMetrics metrics = ComputeMetrics(dag);
  Instance instance;
  instance.add_job(Job(Dag(dag), 0, "fig1"));

  std::printf("job: %s, work=%lld, span=%lld, OPT[m=3]=%lld\n\n",
              DescribeShape(dag).c_str(),
              static_cast<long long>(metrics.work),
              static_cast<long long>(metrics.span),
              static_cast<long long>(SingleBatchOpt(dag, m)));

  const Schedule tight = BuildLpfSchedule(dag, metrics, m);
  const Schedule loose = BuildLowestHeightFirstSchedule(dag, metrics, m);

  TextTable table({"packing", "slots", "idle-cells", "feasible"});
  const std::vector<std::pair<const Schedule*, const char*>> entries = {
      {&tight, "LPF (height-first)"},
      {&loose, "anti-LPF (height-last)"}};
  for (const auto& [packing, label] : entries) {
    const bool ok = ValidateSchedule(*packing, instance).feasible;
    table.row(label, packing->horizon(), packing->idle_processor_slots(),
              ok ? "yes" : "NO");
  }
  table.print();

  RenderOptions options;
  options.label_nodes = true;
  std::printf("\nLPF packing (cells = subjob id mod 10):\n%s",
              RenderSchedule(tight, instance, options).c_str());
  std::printf("\nanti-LPF packing of the SAME job:\n%s",
              RenderSchedule(loose, instance, options).c_str());
  std::printf(
      "\npaper artifact: Figure 1 — same DAG, different packings; LPF's is\n"
      "never longer (Lemma 5.3 optimality at full machine width).\n");
  return 0;
}
