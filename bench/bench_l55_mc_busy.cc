// E5 — Lemma 5.5: the Most-Children replayer never wastes a granted
// processor until the job is finished.
//
// For each (family, p) cell we replay LPF[p] tails (head marked executed,
// exactly as Algorithm A uses MC) under three budget regimes — full,
// alternating, and adversarial random — and count busy violations (steps
// that scheduled fewer subjobs than the budget while work remained).  The
// lemma says every count is zero.
#include <cstdio>

#include "analysis/sweep.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/lpf.h"
#include "core/most_children.h"
#include "gen/random_trees.h"
#include "opt/single_batch.h"

using namespace otsched;

int main() {
  std::printf("== E5 / Lemma 5.5: MC busy property under budget streams ==\n");
  const int kSeeds = 30;
  std::printf("%d seeds x 3 budget regimes per cell; alpha = 4.\n\n", kSeeds);

  const std::vector<int> ps = {1, 2, 4, 8, 16};
  const std::vector<TreeFamily> families = {
      TreeFamily::kBushy, TreeFamily::kMixed, TreeFamily::kSpiny,
      TreeFamily::kBranchy};

  struct Cell {
    std::int64_t violations = 0;
    std::int64_t steps = 0;
    std::int64_t replays = 0;
  };
  struct Config {
    TreeFamily family;
    int p;
  };
  std::vector<Config> configs;
  for (TreeFamily family : families) {
    for (int p : ps) configs.push_back({family, p});
  }

  const auto cells = BatchRunner().Map<Cell>(configs.size(), [&](std::size_t i) {
    const Config& config = configs[i];
    Cell cell;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng rng(static_cast<std::uint64_t>(seed) * 52361 + i);
      const NodeId size =
          static_cast<NodeId>(config.p * 40 + rng.next_below(300));
      const Dag tree = MakeTree(config.family, size, rng);
      const Schedule lpf = BuildLpfSchedule(tree, config.p);
      const Time head = SingleBatchOpt(tree, config.p * 4);

      for (int regime = 0; regime < 3; ++regime) {
        MostChildrenReplayer mc(tree, lpf);
        mc.mark_prefix_executed(head);
        Rng budget_rng(static_cast<std::uint64_t>(seed) * 97 + regime);
        while (!mc.done()) {
          int budget = config.p;
          if (regime == 1) budget = (mc.now() % 2 == 0) ? config.p : 1;
          if (regime == 2) {
            budget = static_cast<int>(
                budget_rng.next_in_range(0, config.p));
          }
          mc.step(budget);
          ++cell.steps;
        }
        cell.violations += mc.busy_violations();
        ++cell.replays;
      }
    }
    return cell;
  });

  TextTable table({"family", "p=m/alpha", "replays", "MC steps",
                   "busy violations"});
  std::int64_t total_violations = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Cell& cell = cells[i];
    total_violations += cell.violations;
    table.row(ToString(configs[i].family), configs[i].p, cell.replays,
              cell.steps, cell.violations);
  }
  table.print();
  std::printf(
      "\npaper artifact: Lemma 5.5 — every MC step either uses the whole\n"
      "granted budget or finishes the job.  Total violations: %lld "
      "(expected 0).\n",
      static_cast<long long>(total_violations));
  return total_violations == 0 ? 0 : 1;
}
