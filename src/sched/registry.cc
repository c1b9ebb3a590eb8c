#include "sched/registry.h"

#include "core/alg_a.h"
#include "core/alg_a_full.h"
#include "core/lpf.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sched/remaining_work.h"
#include "sched/round_robin.h"
#include "sched/work_stealing.h"

namespace otsched {
namespace {

/// The known-opt MakePolicy hands a semi-batched policy when the caller
/// has none.
constexpr Time kFallbackKnownOpt = 2;

PolicySpec Fifo(const std::string& name, FifoTieBreak tie_break,
                std::string description) {
  PolicySpec spec;
  spec.name = name;
  spec.description = std::move(description);
  spec.make = [tie_break](std::uint64_t seed) -> std::unique_ptr<Scheduler> {
    FifoScheduler::Options options;
    options.tie_break = tie_break;
    options.seed = seed;
    return std::make_unique<FifoScheduler>(std::move(options));
  };
  return spec;
}

std::vector<PolicySpec> BuildRegistry() {
  std::vector<PolicySpec> registry;

  // src/sched — the baseline zoo.
  registry.push_back(Fifo("fifo/first-ready", FifoTieBreak::kFirstReady,
                          "non-clairvoyant FIFO, first-ready tie-break"));
  registry.push_back(Fifo("fifo/last-ready", FifoTieBreak::kLastReady,
                          "non-clairvoyant FIFO, last-ready tie-break"));
  registry.push_back(Fifo("fifo/random", FifoTieBreak::kRandom,
                          "non-clairvoyant FIFO, seeded random tie-break"));
  registry.push_back(Fifo("fifo/lpf-height", FifoTieBreak::kLpfHeight,
                          "clairvoyant FIFO, LPF-height tie-break"));
  registry.push_back(
      Fifo("fifo/most-children", FifoTieBreak::kMostChildren,
           "clairvoyant FIFO, most-children tie-break"));

  {
    PolicySpec spec;
    spec.name = "list-greedy";
    spec.description = "work-conserving, no inter-job priority";
    spec.make = [](std::uint64_t seed) -> std::unique_ptr<Scheduler> {
      return std::make_unique<ListGreedyScheduler>(seed);
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "round-robin-equi";
    spec.description = "round-robin processor sharing";
    spec.make = [](std::uint64_t) -> std::unique_ptr<Scheduler> {
      return std::make_unique<RoundRobinScheduler>();
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "work-stealing";
    spec.description = "simulated randomized work stealing";
    spec.make = [](std::uint64_t seed) -> std::unique_ptr<Scheduler> {
      WorkStealingScheduler::Options options;
      options.seed = seed;
      return std::make_unique<WorkStealingScheduler>(std::move(options));
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "remaining-work/smallest";
    spec.description = "smallest-remaining-work first (clairvoyant)";
    spec.make = [](std::uint64_t) -> std::unique_ptr<Scheduler> {
      return std::make_unique<RemainingWorkScheduler>(
          RemainingWorkOrder::kSmallestFirst);
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "remaining-work/largest";
    spec.description = "largest-remaining-work first (clairvoyant)";
    spec.make = [](std::uint64_t) -> std::unique_ptr<Scheduler> {
      return std::make_unique<RemainingWorkScheduler>(
          RemainingWorkOrder::kLargestFirst);
    };
    registry.push_back(std::move(spec));
  }

  // src/core — the Section 5 machinery.
  {
    PolicySpec spec;
    spec.name = "global-lpf";
    spec.description = "global height priority (clairvoyant)";
    spec.make = [](std::uint64_t) -> std::unique_ptr<Scheduler> {
      return std::make_unique<GlobalLpfScheduler>();
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "alg-a/general";
    spec.description = "the paper's Algorithm A (general, Thm 5.7)";
    spec.needs_out_forests = true;
    spec.needs_alpha_divides_m = true;
    spec.ratio_ceiling = kTheorem57Ceiling;
    spec.make = [](std::uint64_t) -> std::unique_ptr<Scheduler> {
      return std::make_unique<AlgAScheduler>();
    };
    registry.push_back(std::move(spec));
  }
  {
    PolicySpec spec;
    spec.name = "alg-a/semi-batched";
    spec.description =
        "Algorithm A with known OPT (Thm 5.6; pass --opt)";
    spec.needs_out_forests = true;
    spec.needs_alpha_divides_m = true;
    spec.needs_semi_batched = true;
    spec.ratio_ceiling = kTheorem56Ceiling;
    spec.make_semi_batched =
        [](Time known_opt) -> std::unique_ptr<Scheduler> {
      AlgASemiBatchedScheduler::Options options;
      options.known_opt = known_opt;
      return std::make_unique<AlgASemiBatchedScheduler>(std::move(options));
    };
    registry.push_back(std::move(spec));
  }

  return registry;
}

}  // namespace

const std::vector<PolicySpec>& AllPolicies() {
  static const std::vector<PolicySpec> registry = BuildRegistry();
  return registry;
}

const PolicySpec* FindPolicy(std::string_view name) {
  for (const PolicySpec& spec : AllPolicies()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Scheduler> MakePolicy(std::string_view name,
                                      std::uint64_t seed, Time known_opt) {
  const PolicySpec* spec = FindPolicy(name);
  if (spec == nullptr) return nullptr;
  if (spec->needs_semi_batched) {
    return spec->make_semi_batched(known_opt > 0 ? known_opt
                                                 : kFallbackKnownOpt);
  }
  return spec->make(seed);
}

std::vector<std::string> ListPolicyNames() {
  std::vector<std::string> names;
  names.reserve(AllPolicies().size());
  for (const PolicySpec& spec : AllPolicies()) names.push_back(spec.name);
  return names;
}

bool PolicyApplies(const PolicySpec& spec, bool all_out_forests,
                   bool semi_batched_certified, int m) {
  if (spec.needs_out_forests && !all_out_forests) return false;
  if (spec.needs_alpha_divides_m && m % 4 != 0) return false;
  if (spec.needs_semi_batched && !semi_batched_certified) return false;
  return true;
}

std::string SemiBatchedError(const PolicySpec& spec,
                             const Instance& instance, Time known_opt) {
  if (!spec.needs_semi_batched) return "";
  const Time opt = known_opt > 0 ? known_opt : kFallbackKnownOpt;
  if (opt % 2 != 0 || !instance.is_batched(opt / 2)) {
    return "semi-batched case needs an even known-opt and every release a "
           "multiple of known-opt / 2";
  }
  return "";
}

}  // namespace otsched
