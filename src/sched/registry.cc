#include "sched/registry.h"

#include "core/alg_a.h"
#include "core/alg_a_full.h"
#include "core/lpf.h"
#include "dag/validate.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sched/remaining_work.h"
#include "sched/round_robin.h"
#include "sched/work_stealing.h"

namespace otsched {
namespace {

/// The known-opt a `needs_known_opt` policy plans with: the caller's,
/// else 2.
Time EffectiveKnownOpt(Time known_opt) { return known_opt > 0 ? known_opt : 2; }

/// The refusal text for an odd known-opt or a release off its half-grid.
constexpr const char* kKnownOptRefusal =
    "semi-batched case needs an even known-opt and every release a "
    "multiple of known-opt / 2";

using Made = std::unique_ptr<Scheduler>;

PolicySpec Fifo(std::string name, FifoTieBreak tie_break,
                std::string description) {
  return {.name = std::move(name),
          .description = std::move(description),
          .factory = [tie_break](std::uint64_t seed, Time) -> Made {
            FifoScheduler::Options options;
            options.tie_break = tie_break;
            options.seed = seed;
            return std::make_unique<FifoScheduler>(std::move(options));
          }};
}

std::vector<PolicySpec> BuildRegistry() {
  return {
      // src/sched — the baseline zoo.
      Fifo("fifo/first-ready", FifoTieBreak::kFirstReady,
           "non-clairvoyant FIFO, first-ready tie-break"),
      Fifo("fifo/last-ready", FifoTieBreak::kLastReady,
           "non-clairvoyant FIFO, last-ready tie-break"),
      Fifo("fifo/random", FifoTieBreak::kRandom,
           "non-clairvoyant FIFO, seeded random tie-break"),
      Fifo("fifo/lpf-height", FifoTieBreak::kLpfHeight,
           "clairvoyant FIFO, LPF-height tie-break"),
      Fifo("fifo/most-children", FifoTieBreak::kMostChildren,
           "clairvoyant FIFO, most-children tie-break"),
      {.name = "list-greedy",
       .description = "work-conserving, no inter-job priority",
       .factory = [](std::uint64_t seed, Time) -> Made {
         return std::make_unique<ListGreedyScheduler>(seed);
       }},
      {.name = "round-robin-equi",
       .description = "round-robin processor sharing",
       .factory = [](std::uint64_t, Time) -> Made {
         return std::make_unique<RoundRobinScheduler>();
       }},
      {.name = "work-stealing",
       .description = "simulated randomized work stealing",
       .factory = [](std::uint64_t seed, Time) -> Made {
         WorkStealingScheduler::Options options;
         options.seed = seed;
         return std::make_unique<WorkStealingScheduler>(std::move(options));
       }},
      {.name = "remaining-work/smallest",
       .description = "smallest-remaining-work first (clairvoyant)",
       .factory = [](std::uint64_t, Time) -> Made {
         return std::make_unique<RemainingWorkScheduler>(
             RemainingWorkOrder::kSmallestFirst);
       }},
      {.name = "remaining-work/largest",
       .description = "largest-remaining-work first (clairvoyant)",
       .factory = [](std::uint64_t, Time) -> Made {
         return std::make_unique<RemainingWorkScheduler>(
             RemainingWorkOrder::kLargestFirst);
       }},

      // src/core — the Section 5 machinery.
      {.name = "global-lpf",
       .description = "global height priority (clairvoyant)",
       .factory = [](std::uint64_t, Time) -> Made {
         return std::make_unique<GlobalLpfScheduler>();
       }},
      {.name = "alg-a/general",
       .description = "the paper's Algorithm A (general, Thm 5.7)",
       .factory = [](std::uint64_t, Time) -> Made {
         return std::make_unique<AlgAScheduler>();
       },
       .alpha = kAlgAAlpha,
       .ratio_ceiling = kTheorem57Ceiling},
      {.name = "alg-a/semi-batched",
       .description = "Algorithm A with known OPT (Thm 5.6; pass --opt)",
       .factory = [](std::uint64_t, Time known_opt) -> Made {
         AlgAScheduler::Options options;
         options.known_opt = known_opt;
         return std::make_unique<AlgAScheduler>(options);
       },
       .alpha = kAlgAAlpha,
       .needs_known_opt = true,
       .ratio_ceiling = kTheorem56Ceiling},
  };
}

}  // namespace

std::unique_ptr<Scheduler> PolicySpec::make(std::uint64_t seed,
                                            Time known_opt) const {
  return factory(seed, EffectiveKnownOpt(known_opt));
}

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
  return spec == nullptr ? nullptr : spec->make(seed, known_opt);
}

std::string PolicyError(const PolicySpec& spec, int m, Time known_opt) {
  if (spec.alpha > 0 && m % spec.alpha != 0) {
    return "policy '" + spec.name + "' needs alpha = " +
           std::to_string(spec.alpha) + " to divide m (Section 5), got m = " +
           std::to_string(m);
  }
  if (spec.needs_known_opt && EffectiveKnownOpt(known_opt) % 2 != 0) {
    return kKnownOptRefusal;
  }
  return "";
}

std::string PolicyJobError(const PolicySpec& spec, const Dag& dag,
                           Time release, Time known_opt) {
  if (spec.alpha > 0 && !IsOutForest(dag)) {
    return "policy '" + spec.name +
           "' needs every job to be an out-forest (Section 5)";
  }
  if (!spec.needs_known_opt) return "";
  const Time opt = EffectiveKnownOpt(known_opt);
  return opt % 2 != 0 || release % (opt / 2) != 0 ? kKnownOptRefusal : "";
}

std::string PolicyError(const PolicySpec& spec, const Instance& instance,
                        int m, Time known_opt) {
  std::string error = PolicyError(spec, m, known_opt);
  for (JobId j = 0; error.empty() && j < instance.job_count(); ++j) {
    const Job& job = instance.job(j);
    error = PolicyJobError(spec, job.dag(), job.release(), known_opt);
  }
  return error;
}

}  // namespace otsched
