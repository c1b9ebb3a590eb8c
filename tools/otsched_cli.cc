// otsched — command-line driver for the library, organised as subcommands:
//
//   otsched gen <family> <args...> <out.inst>     generate an instance
//   otsched adversary <m> <jobs> <out.inst>       materialize the §4 family
//   otsched bounds <in.inst> <m>                  print OPT lower bounds
//       [--certify] [--faults-trace F] [--manifest F]
//   otsched describe <in.inst> [m]                print instance statistics
//   otsched run <in.inst> <m> [--policy] <policy> run a policy, report flows
//       [--render N] [--seed S] [--opt V] [--svg F] [--trace F]
//       [--timeseries F] [--metrics F] [--metrics-csv F] [--manifest F]
//       [--record full|flow] [--faults SPEC] [--faults-trace F]
//       [--job-faults SPEC] [--checkpoint-policy P] [--certify]
//   otsched sweep <in.inst> <policy> [--m LIST] [--seeds N] [--workers N]
//       [--opt V] [--metrics F] [--csv F] [--record full|flow]
//       [--faults SPEC] [--faults-trace F] [--job-faults SPEC]
//       [--checkpoint-policy P] [--checkpoint F] [--resume]
//   otsched trace <in.inst> <m> <policy>          stream the event trace
//       [--seed S] [--opt V] [--out F]
//   otsched faults emit <spec> <m> <horizon> [out.csv]   freeze a model
//   otsched faults inspect <trace.csv> <m>        summarize a budget trace
//   otsched serve [--listen A] [--m M] [--policy P]      NDJSON-over-socket
//       [--journal F] [--recover F] [...]         scheduler daemon (SERVING.md)
//   otsched list-policies                         list the policy registry
//
// Policies are constructed through the shared registry (sched/registry.h)
// under their canonical names (fifo/first-ready); any other name exits 2.
//
// Families for `gen`:
//   quicksort <jobs> <n> <rate-denom> <seed>
//   trees <jobs> <size> <period> <seed>           (mixed random out-trees)
//   saturated <m> <delta> <batches> <seed>        (certified OPT = delta)
//   pipelined <m> <delta> <batches> <seed>        (certified OPT = 2*delta)
//
// Every subcommand reads its arguments through one parser (ParseArgs) over
// a per-command table; an unknown flag, a flag missing its value, or a
// malformed or out-of-range number exits 2 with one line naming the
// argument.  Malformed input files (instance text, budget CSV, fault
// specs) likewise print a per-line diagnostic to stderr and exit 2
// instead of aborting.  All numeric output goes to stdout so it can
// be piped.  --metrics emits the observability JSON documented in
// docs/OBSERVABILITY.md (schema: tools/metrics_schema.json).  Fault specs
// (`--faults`) use the `model[:seed[:rate]]` shorthand from
// docs/ROBUSTNESS.md; `sweep --checkpoint` + `--resume` give crash-tolerant
// sweeps with bit-identical output.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/instance_stats.h"
#include "analysis/ratio.h"
#include "analysis/sweep.h"
#include "analysis/timeseries.h"
#include "common/fnv.h"
#include "common/parse.h"
#include "common/table.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/fifo_adversary.h"
#include "gen/random_trees.h"
#include "gen/recursive.h"
#include "job/serialize.h"
#include "opt/dual_fitting.h"
#include "opt/flow_network.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"
#include "sim/faults.h"
#include "sim/observers.h"
#include "sim/renderer.h"
#include "sim/svg.h"
#include "serve/server.h"
#include "sim/trace.h"

using namespace otsched;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  otsched gen quicksort <jobs> <n> <rate-denom> <seed> <out>\n"
      "  otsched gen trees <jobs> <size> <period> <seed> <out>\n"
      "  otsched gen saturated <m> <delta> <batches> <seed> <out>\n"
      "  otsched gen pipelined <m> <delta> <batches> <seed> <out>\n"
      "  otsched adversary <m> <jobs> <out>\n"
      "  otsched bounds <in> <m> [--certify] [--faults-trace F]\n"
      "              [--manifest F]\n"
      "  otsched describe <in> [m]\n"
      "  otsched run <in> <m> [--policy] <policy> [--render N] [--seed S]\n"
      "              [--opt V] [--svg F] [--trace F] [--timeseries F]\n"
      "              [--metrics F] [--metrics-csv F] [--manifest F]\n"
      "              [--record full|flow]  (default: full)\n"
      "              [--faults MODEL[:SEED[:RATE]]] [--faults-trace F]\n"
      "              [--job-faults MODEL[:SEED[:PARAM]]]\n"
      "              [--checkpoint-policy on-completion|every-slots:K|"
      "every-subjobs:K]\n"
      "              [--certify]\n"
      "  otsched sweep <in> <policy> [--m LIST] [--seeds N] [--workers N]\n"
      "              [--opt V] [--metrics F] [--csv F]\n"
      "              [--record full|flow]  (default: flow)\n"
      "              [--faults MODEL[:SEED[:RATE]]] [--faults-trace F]\n"
      "              [--job-faults MODEL[:SEED[:PARAM]]]\n"
      "              [--checkpoint-policy P]\n"
      "              [--checkpoint F] [--resume]\n"
      "  otsched trace <in> <m> <policy> [--seed S] [--opt V] [--out F]\n"
      "  otsched faults emit <model[:seed[:rate]]> <m> <horizon> [out.csv]\n"
      "  otsched faults inspect <trace.csv> <m>\n"
      "  otsched serve [--listen H:P|unix:PATH] [--m M] [--policy P]\n"
      "              [--seed S] [--chunk N] [--journal F] [--recover F]\n"
      "              [--journal-rotate] [--snapshot-every N] [--max-line B]\n"
      "              [--max-conns N] [--max-pending N] [--idle-timeout-ms T]\n"
      "              streaming scheduler daemon (serve --help for details)\n"
      "  otsched list-policies\n"
      "  otsched list-job-faults\n");
  return 2;
}

// ---- the argument parser every subcommand shares ----

/// One row of a subcommand's argument table.  A name starting with '-'
/// is a flag; any other name is a positional, filled in table order.
/// `set` takes the value (the positional's token, or the token after
/// the flag) and returns false to refuse it, optionally saying why; a
/// flag without `set` is a switch that turns `*on` on.
struct Arg {
  std::string name;
  std::string what;  // the value as diagnostics name it, e.g. "a path"
  std::function<bool(const char* value, std::string* why)> set;
  bool* on = nullptr;
};

/// Flags start with '-' and no digit, so "-3" reaches a value parser.
bool IsFlag(const char* token) {
  return token[0] == '-' && token[1] != '\0' &&
         (token[1] < '0' || token[1] > '9');
}

/// Fills `args` from argv; the first `required` positionals must be
/// present.  An unknown flag, a flag without its value, a refused value,
/// or a missing or extra positional prints one line naming the argument
/// and returns false (the subcommand then exits 2).
bool ParseArgs(const std::string& command, const std::vector<Arg>& args,
               std::size_t required, int argc, char** argv) {
  std::vector<const Arg*> positionals;
  for (const Arg& arg : args) {
    if (!IsFlag(arg.name.c_str())) positionals.push_back(&arg);
  }
  std::size_t filled = 0;
  for (int i = 0; i < argc; ++i) {
    const Arg* arg = nullptr;
    if (IsFlag(argv[i])) {
      for (const Arg& candidate : args) {
        if (candidate.name == argv[i]) arg = &candidate;
      }
      if (arg == nullptr) {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", command.c_str(),
                     argv[i]);
        return false;
      }
      if (!arg->set) {
        *arg->on = true;
        continue;
      }
      if (++i == argc) {
        std::fprintf(stderr, "%s: %s needs %s\n", command.c_str(),
                     arg->name.c_str(), arg->what.c_str());
        return false;
      }
    } else if (filled < positionals.size()) {
      arg = positionals[filled++];
    } else {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", command.c_str(),
                   argv[i]);
      return false;
    }
    std::string why;
    if (!arg->set(argv[i], &why)) {
      std::fprintf(stderr, "%s: %s needs %s, got '%s'%s%s\n",
                   command.c_str(), arg->name.c_str(), arg->what.c_str(),
                   argv[i], why.empty() ? "" : ": ", why.c_str());
      return false;
    }
  }
  if (filled < required) {
    std::fprintf(stderr, "%s: missing %s\n", command.c_str(),
                 positionals[filled]->name.c_str());
    return false;
  }
  return true;
}

/// An integer >= `lo` that fits `Int`, read by the library's strict
/// parser: digits only, so no sign, blank or trailing text.
template <typename Int>
Arg IntArg(std::string name, Int* out, std::type_identity_t<Int> lo = 0,
           std::string what = "") {
  if (what.empty()) {
    what = lo == 0 ? "a nonnegative integer"
                   : "at least " + std::to_string(lo);
  }
  return {std::move(name), std::move(what),
          [out, lo](const char* text, std::string*) {
            Int value = 0;
            if (!ParseNonNegative(text, &value) || value < lo) return false;
            *out = value;
            return true;
          }};
}

Arg MachinesArg(std::string name, int* m) {
  return IntArg(std::move(name), m, 1, "a machine count m >= 1");
}

Arg TextArg(std::string name, std::string* out,
            std::string what = "a path") {
  return {std::move(name), std::move(what),
          [out](const char* text, std::string*) {
            *out = text;
            return true;
          }};
}

Arg SwitchArg(std::string name, bool* on) {
  return {std::move(name), "", nullptr, on};
}

/// `--record full|flow`; `flow-only` is accepted as a synonym of flow.
Arg RecordArg(std::optional<RecordMode>* record) {
  return {"--record", "full or flow",
          [record](const char* text, std::string*) {
            const std::string mode = text;
            if (mode != "full" && mode != "flow" && mode != "flow-only") {
              return false;
            }
            *record =
                mode == "full" ? RecordMode::kFull : RecordMode::kFlowOnly;
            return true;
          }};
}

/// Recoverable instance loading: malformed or unreadable files print the
/// parser's per-line diagnostic to stderr and return nullopt (callers
/// exit 2), instead of the old CHECK-abort on a typo in a hand-edited
/// file.
std::optional<Instance> LoadInstanceOrComplain(const std::string& path) {
  std::string error;
  std::optional<Instance> instance = TryLoadInstance(path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return instance;
}

/// Processor-fault state.  The BudgetTrace is owned here so a kTrace
/// spec's borrowed pointer outlives the run.
struct FaultArgs {
  FaultSpec spec;
  std::optional<BudgetTrace> trace_storage;
};

/// A `MODEL[:SEED[:RATE]]` processor-fault spec.
Arg FaultSpecArg(std::string name, FaultArgs* faults) {
  return {std::move(name), "a fault spec MODEL[:SEED[:RATE]]",
          [faults](const char* text, std::string* why) {
            const std::optional<FaultSpec> spec = ParseFaultSpec(text, why);
            if (spec.has_value()) faults->spec = *spec;
            return spec.has_value();
          }};
}

/// A budget CSV, which becomes the active fault model (overriding any
/// earlier `--faults` choice).
Arg BudgetTraceArg(std::string name, FaultArgs* faults) {
  return {std::move(name), "a budget CSV",
          [faults](const char* path, std::string* why) {
            std::ifstream in(path);
            if (!in.good()) {
              *why = "cannot open it";
              return false;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            std::optional<BudgetTrace> trace =
                BudgetTrace::try_from_csv(buffer.str(), why);
            if (!trace.has_value()) return false;
            faults->trace_storage = *std::move(trace);
            faults->spec.model = FaultModel::kTrace;
            faults->spec.trace = &*faults->trace_storage;
            return true;
          }};
}

/// What the fault and record flags shared by `run` and `sweep` set.
struct SimFlags {
  FaultArgs faults;
  JobFaultSpec job_faults;
  // Distinguishes "--checkpoint-policy never given" from its default, so
  // a stray --checkpoint-policy without --job-faults diagnoses.
  bool checkpoint_policy_set = false;
  std::optional<RecordMode> record;

  /// The run options, recording `fallback` unless --record chose.
  SimOptions options(RecordMode fallback) const {
    SimOptions options;
    options.record = record.value_or(fallback);
    options.faults = faults.spec;
    options.job_faults = job_faults;
    return options;
  }
};

/// Declares the flags `run` and `sweep` share: --faults, --faults-trace,
/// --job-faults, --checkpoint-policy and --record.
void AddSimFlags(std::vector<Arg>* args, SimFlags* sim) {
  args->push_back(FaultSpecArg("--faults", &sim->faults));
  args->push_back(BudgetTraceArg("--faults-trace", &sim->faults));
  args->push_back(
      {"--job-faults", "a job-fault spec MODEL[:SEED[:PARAM]]",
       [sim](const char* text, std::string* why) {
         std::optional<JobFaultSpec> spec = ParseJobFaultSpec(text, why);
         if (!spec.has_value()) return false;
         // Keep a checkpoint policy already parsed: the two flags may
         // come in either order.
         spec->checkpoint = sim->job_faults.checkpoint;
         spec->checkpoint_every = sim->job_faults.checkpoint_every;
         sim->job_faults = *spec;
         return true;
       }});
  args->push_back(
      {"--checkpoint-policy",
       "a checkpoint policy on-completion|every-slots:K|every-subjobs:K",
       [sim](const char* text, std::string* why) {
         sim->checkpoint_policy_set = true;
         return ParseCheckpointPolicyInto(text, &sim->job_faults, why);
       }});
  args->push_back(RecordArg(&sim->record));
}

/// Refuses what the engines cannot run (RunSupportError) with its reason,
/// plus the CLI-only orphan --checkpoint-policy, instead of tripping an
/// engine CHECK.
bool CheckRunSupportOrComplain(const Scheduler& policy,
                               const SimOptions& options,
                               const SimFlags& sim) {
  if (sim.checkpoint_policy_set && !sim.job_faults.active()) {
    std::fprintf(stderr,
                 "--checkpoint-policy needs an active job-fault model "
                 "(--job-faults)\n");
    return false;
  }
  const std::string error = RunSupportError(policy, options);
  if (error.empty()) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

/// The engines count m * horizon processor-slots in int64; a run whose
/// auto horizon (AutoHorizon, evaluated in __int128) could take that
/// past 2^63 - 1 on some m in `machines` is refused with one line
/// instead of reaching the engines' overflow CHECK.
bool HorizonFitsOrComplain(const char* command, const Instance& instance,
                           const std::vector<int>& machines,
                           const SimOptions& options) {
  const __int128 horizon = AutoHorizon<__int128>(
      instance.max_release(), instance.total_work(), instance.max_span(),
      options.faults.active() || options.job_faults.active());
  for (const int m : machines) {
    if (m * horizon <= std::numeric_limits<std::int64_t>::max()) continue;
    std::fprintf(stderr,
                 "%s: m = %d times the auto horizon (max release %lld + "
                 "work + span) overflows the int64 processor-slot count\n",
                 command, m, static_cast<long long>(instance.max_release()));
    return false;
  }
  return true;
}

/// Prints the job-fault crash models and checkpoint policies with their
/// spec shorthands, mirroring `list-policies`.
void ListJobFaults() {
  std::printf("crash models (--job-faults MODEL[:SEED[:PARAM]]):\n");
  std::printf("%-36s %s\n", "none",
              "no job ever crashes (the default)");
  std::printf("%-36s %s\n", "random-crash[:seed[:rate]]",
              "iid per-(slot, job) crash with probability rate in [0, 0.9]");
  std::printf("%-36s %s\n", "periodic-crash[:seed[:period]]",
              "deterministic crash every `period` slots of job age (>= 2)");
  std::printf("%-36s %s\n", "adversarial-loss[:seed[:threshold]]",
              "crash the moment volatile work reaches `threshold` (>= 1)");
  std::printf("\ncheckpoint policies (--checkpoint-policy P):\n");
  std::printf("%-36s %s\n", "on-completion",
              "only the implicit commit when a job finishes (the default)");
  std::printf("%-36s %s\n", "every-slots:K",
              "commit every job at slots divisible by K");
  std::printf("%-36s %s\n", "every-subjobs:K",
              "commit a job once its volatile work reaches K subjobs");
  std::printf(
      "\ncrashed jobs lose every subjob executed since their last commit\n"
      "and redo that work; see docs/ROBUSTNESS.md for the model contract.\n");
}

bool WriteFileOrComplain(const std::string& path, const std::string& content,
                         const char* what) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(), what);
    return false;
  }
  out << content;
  return true;
}

/// Prints the registry: canonical name, one-line summary.
void ListPolicies() {
  for (const PolicySpec& spec : AllPolicies()) {
    std::printf("%-36s %s\n", spec.name.c_str(), spec.description.c_str());
  }
}

/// MakePolicy once the registry's gate accepts `name` on every m in
/// `machines` (and each job of `instance`, if given) and a --opt is not
/// below the lower bound; else a diagnostic and null, and the caller
/// exits 2.  Shared by run/sweep/trace/serve; serve passes no machines,
/// since ScheduleServer::start asks the gate itself.
std::unique_ptr<Scheduler> MakePolicyOrComplain(
    const std::string& name, std::uint64_t seed, Time known_opt,
    const std::vector<int>& machines, const Instance* instance = nullptr) {
  const PolicySpec* spec = FindPolicy(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown policy '%s' (try `otsched list-policies`)\n",
                 name.c_str());
    return nullptr;
  }
  for (const int m : machines) {
    std::string error = instance == nullptr
                            ? PolicyError(*spec, m, known_opt)
                            : PolicyError(*spec, *instance, m, known_opt);
    if (error.empty() && instance != nullptr && known_opt > 0) {
      const Time lower = MaxFlowLowerBound(*instance, m);
      if (known_opt < lower) {
        error = "--opt " + std::to_string(known_opt) +
                " is below the lower bound " + std::to_string(lower) +
                " on m = " + std::to_string(m) + ", so it cannot be OPT";
      }
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return nullptr;
    }
  }
  return spec->make(seed, known_opt);
}

/// --opt is a claim, not a certificate: a schedule that beats it refutes
/// it, which run, trace and sweep (on every cell) report as one line and
/// exit 2, rather than MeasureRatio's certification-bug abort.
bool OptRefutedOrComplain(const char* command, Time max_flow,
                          Time known_opt) {
  if (known_opt <= 0 || max_flow >= known_opt) return false;
  std::fprintf(stderr,
               "%s: the schedule's max flow %lld beats --opt %lld, so %lld "
               "is not OPT\n",
               command, static_cast<long long>(max_flow),
               static_cast<long long>(known_opt),
               static_cast<long long>(known_opt));
  return true;
}

int CmdGen(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string family = argv[0];
  const std::string command = "gen " + family;
  std::uint64_t seed = 0;
  std::string out;
  auto parse = [&](std::vector<Arg> args) {
    args.push_back(IntArg("seed", &seed));
    args.push_back(TextArg("out", &out));
    return ParseArgs(command, args, args.size(), argc - 1, argv + 1);
  };
  auto save = [&](Instance instance) {
    SaveInstance(instance, out);
    std::printf("wrote %s: %d jobs, %lld subjobs, releases %lld..%lld\n",
                out.c_str(), instance.job_count(),
                static_cast<long long>(instance.total_work()),
                static_cast<long long>(instance.min_release()),
                static_cast<long long>(instance.max_release()));
    return 0;
  };

  if (family == "quicksort") {
    std::int64_t jobs = 0;
    std::int64_t n = 0;
    std::int64_t rate_denom = 0;
    if (!parse({IntArg("jobs", &jobs, 1), IntArg("n", &n, 1),
                IntArg("rate-denom", &rate_denom, 1)})) {
      return 2;
    }
    Rng rng(seed);
    return save(MakePoissonArrivals(
        jobs, 1.0 / static_cast<double>(rate_denom),
        [n](std::int64_t, Rng& r) {
          QuicksortOptions q;
          q.n = n;
          q.grain = std::max<std::int64_t>(1, n / 32);
          q.cutoff = q.grain;
          return MakeQuicksortTree(q, r);
        },
        rng));
  }
  if (family == "trees") {
    std::int64_t jobs = 0;
    NodeId size = 0;
    Time period = 0;
    if (!parse({IntArg("jobs", &jobs, 1), IntArg("size", &size, 1),
                IntArg("period", &period, 1)})) {
      return 2;
    }
    Rng rng(seed);
    return save(MakePeriodicArrivals(
        jobs, period,
        [size](std::int64_t i, Rng& r) {
          return MakeTree(static_cast<TreeFamily>(i % 4), size, r);
        },
        rng));
  }
  if (family == "saturated" || family == "pipelined") {
    const bool pipelined = family == "pipelined";
    int m = 0;
    Time delta = 0;
    int batches = 0;
    Arg machines = MachinesArg("m", &m);
    if (pipelined) {
      machines.what = "an even machine count m >= 2";
      machines.set = [&m](const char* text, std::string*) {
        return ParseNonNegative(text, &m) && m >= 2 && m % 2 == 0;
      };
    }
    if (!parse({machines, IntArg("delta", &delta, 1),
                IntArg("batches", &batches, 1)})) {
      return 2;
    }
    Rng rng(seed);
    CertifiedInstance cert =
        pipelined ? MakePipelinedSemiBatchedInstance(m, delta, batches, rng)
                  : MakeSpacedSaturatedInstance(m, delta, batches, rng);
    std::printf("certified OPT on m=%d: %lld\n", m,
                static_cast<long long>(cert.opt));
    return save(std::move(cert.instance));
  }
  return Usage();
}

int CmdAdversary(int argc, char** argv) {
  LowerBoundSimOptions options;
  std::string out;
  if (!ParseArgs("adversary",
                 {IntArg("m", &options.m, 2, "a machine count m >= 2"),
                  IntArg("jobs", &options.num_jobs, 1),
                  TextArg("out", &out)},
                 3, argc, argv)) {
    return 2;
  }
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  SaveInstance(adv.instance, out);
  std::printf(
      "wrote %s: m=%d, %lld jobs, certified OPT <= %lld\n"
      "co-simulated arbitrary-FIFO max flow: %lld (ratio %.2f)\n",
      out.c_str(), options.m, static_cast<long long>(options.num_jobs),
      static_cast<long long>(adv.fifo_run.certified_opt_upper),
      static_cast<long long>(adv.fifo_run.max_flow),
      static_cast<double>(adv.fifo_run.max_flow) /
          static_cast<double>(adv.fifo_run.certified_opt_upper));
  return 0;
}

int CmdDescribe(int argc, char** argv) {
  std::string path;
  int m = 1;
  if (!ParseArgs("describe",
                 {TextArg("in", &path, "an instance file"),
                  MachinesArg("m", &m)},
                 1, argc, argv)) {
    return 2;
  }
  const std::optional<Instance> instance = LoadInstanceOrComplain(path);
  if (!instance.has_value()) return 2;
  std::printf("%s\n", ToString(ComputeInstanceStats(*instance, m)).c_str());
  return 0;
}

int CmdBounds(int argc, char** argv) {
  std::string path;
  int m = 0;
  bool certify = false;
  std::string manifest_path;
  FaultArgs faults;
  if (!ParseArgs("bounds",
                 {TextArg("in", &path, "an instance file"),
                  MachinesArg("m", &m), SwitchArg("--certify", &certify),
                  BudgetTraceArg("--faults-trace", &faults),
                  TextArg("--manifest", &manifest_path)},
                 2, argc, argv)) {
    return 2;
  }
  const std::optional<Instance> loaded = LoadInstanceOrComplain(path);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  // The heuristic components model a healthy machine; under an explicit
  // budget trace only the certified bounds are meaningful.
  const BudgetTrace* budget =
      faults.trace_storage.has_value() ? &*faults.trace_storage : nullptr;
  const LowerBounds bounds = ComputeLowerBounds(instance, m);
  TextTable table({"bound", "value"});
  table.row("span (max job span)", bounds.span_bound);
  table.row("work (max ceil(W_i/m))", bounds.work_bound);
  table.row("depth profile (Lemma 5.1)", bounds.depth_profile_bound);
  table.row("interval (released work)", bounds.interval_bound);
  table.row("depth x interval (combined)", bounds.depth_interval_bound);
  table.row("best", bounds.best());
  table.print("lower bounds on OPT max-flow, m = " + std::to_string(m) +
              (budget != nullptr ? " (healthy-machine heuristics):"
                                 : ":"));
  std::printf("best component  : %s\n", ToString(bounds.best_component()));

  if (!certify && manifest_path.empty() && budget == nullptr) return 0;

  // Certified bounds: each certificate re-verifies in-process before
  // anything is printed or written (a broken certificate aborts inside
  // the constructors; the explicit verify here surfaces the verdict).
  const Certificate dual = DualFitCertificate(instance, m, budget);
  const Certificate flow = MaxFlowCertificate(instance, m, budget);
  std::string why;
  const bool dual_ok = dual.verify(instance, budget, &why);
  const bool flow_ok = flow.verify(instance, budget, &why);
  std::printf("certified bounds%s:\n",
              budget != nullptr ? " (under budget trace)" : "");
  std::printf("  dual-fit certificate : %lld (%s)\n",
              static_cast<long long>(dual.value),
              dual_ok ? "verified" : "VERIFY FAILED");
  std::printf("  max-flow certificate : %lld (%s)\n",
              static_cast<long long>(flow.value),
              flow_ok ? "verified" : "VERIFY FAILED");
  if (!dual_ok || !flow_ok) return 1;

  if (!manifest_path.empty()) {
    SimOptions options;
    options.faults = faults.spec;
    RunManifest manifest =
        MakeRunManifest(instance, m, "<bounds>", /*seed=*/0, options);
    manifest.certified_bound = flow.value;
    manifest.certificate_method = flow.method;
    if (!WriteFileOrComplain(manifest_path, manifest.to_json(),
                             "manifest")) {
      return 1;
    }
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }
  return 0;
}

int CmdRun(int argc, char** argv) {
  std::string path;
  int m = 0;
  std::string policy_name;  // positional, or spelled `--policy <name>`
  Time render = 0;
  std::uint64_t seed = 1;
  Time known_opt = 0;
  std::string svg_path;
  std::string trace_path;
  std::string timeseries_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  std::string manifest_path;
  SimFlags sim;
  bool certify = false;
  std::vector<Arg> args = {
      TextArg("in", &path, "an instance file"), MachinesArg("m", &m),
      TextArg("policy", &policy_name, "a policy name"),
      TextArg("--policy", &policy_name, "a policy name"),
      IntArg("--render", &render), IntArg("--seed", &seed),
      IntArg("--opt", &known_opt), TextArg("--svg", &svg_path),
      TextArg("--trace", &trace_path), TextArg("--metrics", &metrics_path),
      TextArg("--timeseries", &timeseries_path),
      TextArg("--metrics-csv", &metrics_csv_path),
      TextArg("--manifest", &manifest_path), SwitchArg("--certify", &certify)};
  AddSimFlags(&args, &sim);
  if (!ParseArgs("run", args, 2, argc, argv)) return 2;
  if (policy_name.empty()) {
    std::fprintf(stderr, "run: missing policy\n");
    return 2;
  }
  const std::optional<Instance> loaded = LoadInstanceOrComplain(path);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  const FaultArgs& faults = sim.faults;
  const bool job_faulted = sim.job_faults.active();

  std::unique_ptr<Scheduler> policy =
      MakePolicyOrComplain(policy_name, seed, known_opt, {m}, &instance);
  if (!policy) return 2;
  // Job faults force flow-only recording; an unset --record follows along,
  // an explicit --record full diagnoses.
  const SimOptions run_options =
      sim.options(job_faulted ? RecordMode::kFlowOnly : RecordMode::kFull);
  if (!CheckRunSupportOrComplain(*policy, run_options, sim)) return 2;
  if (!HorizonFitsOrComplain("run", instance, {m}, run_options)) return 2;
  const bool walks_schedule =
      render > 0 || !svg_path.empty() || !timeseries_path.empty();
  if (walks_schedule && run_options.record != RecordMode::kFull) {
    // Job faults record flow-only, so this covers both.
    std::fprintf(stderr,
                 "--render/--svg/--timeseries read the run's schedule and "
                 "are incompatible with --job-faults and --record flow\n");
    return 2;
  }
  if (certify && faults.spec.active() &&
      faults.spec.model != FaultModel::kTrace) {
    // The certified bound charges explicit per-slot capacities; freeze the
    // stochastic model first so the certificate covers the same budgets.
    std::fprintf(stderr,
                 "--certify needs explicit per-slot budgets under faults; "
                 "freeze the model with `otsched faults emit` and pass "
                 "--faults-trace\n");
    return 2;
  }

  // Observers ride along on the measured run itself: the trace streams
  // online and the metrics figures are the run's own SimStats/FlowSummary.
  MetricsRegistry registry;
  MetricsObserver metrics_observer(registry);
  EventTrace streamed;
  StreamingTraceObserver trace_observer(streamed);
  ObserverList observers;
  const bool want_metrics = !metrics_path.empty() ||
                            !metrics_csv_path.empty();
  if (want_metrics) observers.add(&metrics_observer);
  if (!trace_path.empty()) observers.add(&trace_observer);

  const RunContext context{run_options,
                           observers.empty() ? nullptr : &observers};
  RatioMeasurement r =
      MeasureRatio(instance, m, *policy, /*certified_opt=*/0, context);
  if (OptRefutedOrComplain("run", r.max_flow, known_opt)) return 2;
  if (known_opt > 0) {
    r.opt_denominator = known_opt;
    r.denominator_exact = true;
    r.ratio = static_cast<double>(r.max_flow) / static_cast<double>(known_opt);
  }
  if (certify) {
    // Verified denominator for the same budget stream the run consumed
    // (nullptr = healthy machine).  Aborts if the certificate fails its
    // own verification or the measured flow beats the certified bound.
    AttachCertificate(r, instance,
                      faults.trace_storage.has_value()
                          ? &*faults.trace_storage
                          : nullptr);
  }

  std::printf("policy          : %s\n", r.scheduler.c_str());
  std::printf("max flow        : %lld\n", static_cast<long long>(r.max_flow));
  std::printf("vs %s: %.3f (denominator %lld)\n",
              r.denominator_exact ? "certified OPT " : "lower bound   ",
              r.ratio, static_cast<long long>(r.opt_denominator));
  if (r.certified_bound > 0) {
    std::printf("vs certificate  : %.3f (certified bound %lld, %s, %s)\n",
                r.ratio_vs_certificate,
                static_cast<long long>(r.certified_bound),
                r.certificate_method.c_str(),
                r.certificate_verified ? "verified" : "VERIFY FAILED");
  }
  std::printf("mean / p99 flow : %.1f / %lld\n", r.flow_stats.mean,
              static_cast<long long>(r.flow_stats.p99));
  std::printf("horizon         : %lld slots, idle processor-slots %lld\n",
              static_cast<long long>(r.sim_stats.horizon),
              static_cast<long long>(r.sim_stats.idle_processor_slots));
  if (job_faulted) {
    std::printf("job faults      : %lld rollbacks, %lld wasted subjob-slots, "
                "%lld interval checkpoints\n",
                static_cast<long long>(r.sim_stats.job_rollbacks),
                static_cast<long long>(r.sim_stats.wasted_subjob_slots),
                static_cast<long long>(r.sim_stats.checkpoints));
  }

  RunManifest manifest =
      MakeRunManifest(instance, m, r.scheduler, seed, context.options);
  if (r.certified_bound > 0) {
    manifest.certified_bound = r.certified_bound;
    manifest.certificate_method = r.certificate_method;
    char formatted[32];
    std::snprintf(formatted, sizeof(formatted), "%.4f",
                  r.ratio_vs_certificate);
    manifest.ratio_vs_certificate = formatted;
  }
  if (want_metrics) WriteManifest(registry, manifest);
  if (!metrics_path.empty() &&
      !WriteFileOrComplain(metrics_path, registry.to_json(), "metrics")) {
    return 1;
  }
  if (!metrics_path.empty()) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!metrics_csv_path.empty()) {
    if (!WriteFileOrComplain(metrics_csv_path, registry.series_csv(),
                             "metrics CSV")) {
      return 1;
    }
    std::printf("metric series written to %s\n", metrics_csv_path.c_str());
  }
  if (!manifest_path.empty()) {
    if (!WriteFileOrComplain(manifest_path, manifest.to_json(), "manifest")) {
      return 1;
    }
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }
  if (!trace_path.empty()) {
    std::string trace_error;
    if (!streamed.to_file(trace_path, &trace_error)) {
      std::fprintf(stderr, "%s\n", trace_error.c_str());
      return 1;
    }
    std::printf("event trace written to %s\n", trace_path.c_str());
  }

  if (render > 0) {
    RenderOptions options;
    options.to_slot = render;
    std::printf("\nfirst %lld slots:\n%s", static_cast<long long>(render),
                RenderSchedule(*r.schedule, instance, options).c_str());
  }
  if (!svg_path.empty()) {
    SvgOptions options;
    options.title = policy_name + " on " + path;
    SaveScheduleSvg(*r.schedule, instance, svg_path, options);
    std::printf("\nSVG written to %s\n", svg_path.c_str());
  }
  if (!timeseries_path.empty()) {
    std::ofstream out(timeseries_path);
    out << ComputeTimeSeries(*r.schedule, instance).to_csv();
    std::printf("time series written to %s\n", timeseries_path.c_str());
  }
  return 0;
}

/// `--m LIST`: comma-separated machine counts.
Arg MachineListArg(std::vector<int>* machines) {
  return {"--m", "a comma-separated list of machine counts m >= 1",
          [machines](const char* text, std::string*) {
            machines->clear();
            for (const std::string& field : SplitFields(text, ',')) {
              int m = 0;
              if (!ParseNonNegative(field, &m) || m < 1) return false;
              machines->push_back(m);
            }
            return true;
          }};
}

int CmdSweep(int argc, char** argv) {
  std::string path;
  std::string policy_name;
  std::vector<int> machines = {2, 4};
  std::size_t seeds = 3;
  std::size_t workers = 0;
  Time known_opt = 0;
  std::string metrics_path;
  std::string csv_path;
  std::string checkpoint_path;
  bool resume = false;
  SimFlags sim;
  std::vector<Arg> args = {
      TextArg("in", &path, "an instance file"),
      TextArg("policy", &policy_name, "a policy name"),
      MachineListArg(&machines), IntArg("--seeds", &seeds, 1),
      IntArg("--workers", &workers), IntArg("--opt", &known_opt),
      TextArg("--metrics", &metrics_path), TextArg("--csv", &csv_path),
      TextArg("--checkpoint", &checkpoint_path),
      SwitchArg("--resume", &resume)};
  AddSimFlags(&args, &sim);
  if (!ParseArgs("sweep", args, 2, argc, argv)) return 2;
  const std::optional<Instance> loaded = LoadInstanceOrComplain(path);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  // Sweeps only read flows and stats, so cells default to flow-only
  // recording; `--record full` restores schedule materialization.
  const SimOptions sweep_options = sim.options(RecordMode::kFlowOnly);
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    return 2;
  }
  if (!checkpoint_path.empty() &&
      (!metrics_path.empty() || !csv_path.empty() ||
       sweep_options.record == RecordMode::kFull)) {
    // Checkpointed cells are flow-only and un-instrumented: their persisted
    // flow records ARE the output, so a resumed run stays bit-identical to
    // an uninterrupted one.  Full recording / merged metrics would need the
    // skipped cells re-run, defeating the point.
    std::fprintf(stderr,
                 "--checkpoint is incompatible with --metrics, --csv and "
                 "--record full\n");
    return 2;
  }
  {
    const std::unique_ptr<Scheduler> probe =
        MakePolicyOrComplain(policy_name, 1, known_opt, machines, &instance);
    if (!probe) return 2;
    if (!CheckRunSupportOrComplain(*probe, sweep_options, sim)) return 2;
  }
  if (!HorizonFitsOrComplain("sweep", instance, machines, sweep_options)) {
    return 2;
  }

  std::optional<SweepCheckpoint> checkpoint;
  if (!checkpoint_path.empty()) {
    SweepCheckpoint::Identity identity;
    identity.instance_hash = Hex16(FingerprintInstance(instance));
    identity.policy = policy_name;
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      if (mi > 0) identity.machines += ',';
      identity.machines += std::to_string(machines[mi]);
    }
    identity.seeds = static_cast<int>(seeds);
    identity.record = "flow-only";
    identity.faults = ToString(sim.faults.spec);
    if (sim.job_faults.active()) {
      // The job-fault axis folds into the fault identity string: a resumed
      // sweep must replay the exact same crash/checkpoint streams.
      identity.faults += "+" + ToString(sim.job_faults) + "@" +
                         CheckpointPolicyString(sim.job_faults);
    }
    checkpoint.emplace(checkpoint_path, identity);
    if (resume) {
      std::string error;
      if (!checkpoint->resume(&error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
  }

  // Grid: machines x seeds, in row-major order; cell i uses seed
  // (i % seeds) + 1 on machines[i / seeds].  Each cell is one Simulate,
  // instrumented only when --metrics/--csv will read its registry, and
  // skipped when a resumed checkpoint already holds it.
  const bool want_metrics = !metrics_path.empty() || !csv_path.empty();
  // Pick wall times stay off so the aggregate is identical for any
  // --workers value (the determinism contract of every sweep table).
  MetricsObserver::Options observer_options;
  observer_options.record_pick_times = false;
  struct Cell {
    SweepCellRecord record;
    MetricsRegistry metrics;
  };
  const std::size_t count = machines.size() * seeds;
  // Workers beyond the cell count would only idle (0 stays "auto").
  const BatchRunner runner(workers == 0 ? 0 : std::min(workers, count));
  std::vector<Cell> cells = runner.Map<Cell>(count, [&](std::size_t i) {
    Cell cell;
    if (checkpoint.has_value()) {
      if (std::optional<SweepCellRecord> done = checkpoint->completed(i)) {
        cell.record = *done;  // Survived the previous run: skip the sim.
        return cell;
      }
    }
    const int m = machines[i / seeds];
    const std::uint64_t seed = i % seeds + 1;
    std::unique_ptr<Scheduler> policy =
        MakePolicy(policy_name, seed, known_opt);
    std::optional<MetricsObserver> observer;
    if (want_metrics) observer.emplace(cell.metrics, observer_options);
    const SimResult result =
        Simulate(instance, m, *policy,
                 RunContext(sweep_options,
                            observer.has_value() ? &*observer : nullptr));
    cell.record = {i,
                   m,
                   seed,
                   result.flows.max_flow,
                   result.stats.horizon,
                   result.stats.busy_slots,
                   result.stats.executed_subjobs,
                   result.stats.idle_processor_slots};
    if (checkpoint.has_value()) checkpoint->record(cell.record);
    return cell;
  });

  for (const Cell& cell : cells) {
    if (OptRefutedOrComplain("sweep", cell.record.max_flow, known_opt)) {
      return 2;
    }
  }

  // The table is derived purely from the per-cell max flows, so a fresh
  // run, a checkpointed run, and a killed-and-resumed run print
  // byte-identical tables (the CI crash-tolerance gate diffs exactly
  // this).
  TextTable table({"m", "max-flow mean", "min", "max"});
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    std::vector<double> max_flows;
    for (std::size_t i = mi * seeds; i < (mi + 1) * seeds; ++i) {
      max_flows.push_back(static_cast<double>(cells[i].record.max_flow));
    }
    const SeedAggregate agg = Aggregate(max_flows);
    table.row("m=" + std::to_string(machines[mi]), agg.mean, agg.min,
              agg.max);
  }
  table.print(policy_name + " on " + path + ", " + std::to_string(seeds) +
              " seeds:");

  if (want_metrics) {
    std::vector<MetricsRegistry> registries;
    registries.reserve(count);
    for (Cell& cell : cells) registries.push_back(std::move(cell.metrics));
    MetricsRegistry merged = MergedMetrics(registries);
    RunManifest manifest = MakeRunManifest(instance, machines.front(),
                                           policy_name, 1, sweep_options);
    manifest.m = machines.front();
    WriteManifest(merged, manifest);
    merged.set_manifest("cells", static_cast<std::int64_t>(count));
    merged.set_manifest("seeds", static_cast<std::int64_t>(seeds));
    if (!metrics_path.empty()) {
      if (!WriteFileOrComplain(metrics_path, merged.to_json(), "metrics")) {
        return 1;
      }
      std::printf("merged metrics written to %s\n", metrics_path.c_str());
    }
    if (!csv_path.empty()) {
      if (!WriteFileOrComplain(csv_path, merged.series_csv(),
                               "metric series CSV")) {
        return 1;
      }
      std::printf("merged metric series written to %s\n", csv_path.c_str());
    }
  }
  return 0;
}

int CmdTrace(int argc, char** argv) {
  std::string path;
  int m = 0;
  std::string policy_name;
  std::uint64_t seed = 1;
  Time known_opt = 0;
  std::string out_path;
  if (!ParseArgs("trace",
                 {TextArg("in", &path, "an instance file"),
                  MachinesArg("m", &m),
                  TextArg("policy", &policy_name, "a policy name"),
                  IntArg("--seed", &seed), IntArg("--opt", &known_opt),
                  TextArg("--out", &out_path)},
                 3, argc, argv)) {
    return 2;
  }
  const std::optional<Instance> loaded = LoadInstanceOrComplain(path);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  std::unique_ptr<Scheduler> policy =
      MakePolicyOrComplain(policy_name, seed, known_opt, {m}, &instance);
  if (!policy) return 2;
  // The trace streams from the observer hooks, so the run keeps no
  // schedule.
  const SimOptions options = FlowOnlyOptions();
  if (!HorizonFitsOrComplain("trace", instance, {m}, options)) return 2;
  EventTrace streamed;
  StreamingTraceObserver trace_observer(streamed);
  const SimResult result =
      Simulate(instance, m, *policy, RunContext(options, &trace_observer));
  if (OptRefutedOrComplain("trace", result.flows.max_flow, known_opt)) {
    return 2;
  }
  if (out_path.empty()) {
    std::fputs(streamed.to_text().c_str(), stdout);
  } else {
    std::string trace_error;
    if (!streamed.to_file(out_path, &trace_error)) {
      std::fprintf(stderr, "%s\n", trace_error.c_str());
      return 1;
    }
    std::printf("event trace written to %s\n", out_path.c_str());
  }
  return 0;
}

void PrintServeHelp() {
  std::fputs(
      "usage: otsched serve [flags]      streaming scheduler daemon\n"
      "\n"
      "Socket front-end over a SimDriver: NDJSON submissions in, one\n"
      "reply line per finished job out; GET /metrics and /healthz on the\n"
      "same port.  See docs/SERVING.md.\n"
      "\n"
      "  --listen H:P|unix:PATH  bind address (default 127.0.0.1:0;\n"
      "                          port 0 = ephemeral, printed on stdout)\n"
      "  --m M                   processors (default 4)\n"
      "  --policy P              scheduling policy (default alg-a/general)\n"
      "  --seed S                policy seed (default 0)\n"
      "  --chunk N               slots simulated per poll round (default 128)\n"
      "\n"
      "durability (docs/SERVING.md, \"Durability & recovery\"):\n"
      "  --journal PATH          append a write-ahead journal: every\n"
      "                          accepted job and slot advance, fsynced\n"
      "                          before the cycle's replies flush\n"
      "  --recover PATH          replay PATH through the driver before\n"
      "                          accepting connections; combined with\n"
      "                          --journal it must be the SAME file\n"
      "  --journal-rotate        truncate the journal to header + base\n"
      "                          snapshot at quiescent points (needs a\n"
      "                          warm-startable policy, e.g. fifo/first-ready)\n"
      "  --snapshot-every N      append a snapshot record at the first\n"
      "                          quiescent point every N journal records\n"
      "\n"
      "overload shedding (docs/SERVING.md, \"Overload behavior\"):\n"
      "  --max-line BYTES        longest accepted line; past it the\n"
      "                          connection gets one structured error and\n"
      "                          is closed (default 1048576)\n"
      "  --max-conns N           live-connection ceiling; extra\n"
      "                          connections are refused with an\n"
      "                          'overloaded' reply (default unlimited)\n"
      "  --max-pending N         pending-jobs watermark; submissions past\n"
      "                          it get an 'overloaded' reply and are not\n"
      "                          accepted (default unlimited)\n"
      "  --idle-timeout-ms MS    close connections idle this long that\n"
      "                          owe nothing and are owed nothing\n"
      "                          (default: never)\n",
      stdout);
}

int CmdServe(int argc, char** argv) {
  serve::ServeOptions options;
  bool help = false;
  if (!ParseArgs(
          "serve",
          {SwitchArg("--help", &help), SwitchArg("-h", &help),
           TextArg("--listen", &options.listen, "an address H:P|unix:PATH"),
           MachinesArg("--m", &options.m),
           TextArg("--policy", &options.policy, "a policy name"),
           IntArg("--seed", &options.seed),
           IntArg("--chunk", &options.chunk_slots, 1),
           TextArg("--journal", &options.journal_path),
           TextArg("--recover", &options.recover_path),
           SwitchArg("--journal-rotate", &options.journal_rotate),
           IntArg("--snapshot-every", &options.snapshot_every),
           IntArg("--max-line", &options.max_line_bytes, 1),
           IntArg("--max-conns", &options.max_connections),
           IntArg("--max-pending", &options.max_pending_jobs),
           IntArg("--idle-timeout-ms", &options.idle_timeout_ms)},
          0, argc, argv)) {
    return 2;
  }
  if (help) {
    PrintServeHelp();
    return 0;
  }
  std::unique_ptr<Scheduler> policy =
      MakePolicyOrComplain(options.policy, options.seed, 0, {});
  if (!policy) return 2;

  static volatile std::sig_atomic_t stop_flag = 0;
  options.stop_flag = &stop_flag;
  if (!serve::InstallStopSignalHandlers(&stop_flag)) {
    std::fprintf(stderr, "serve: cannot install signal handlers\n");
    return 1;
  }

  serve::ScheduleServer server(options, std::move(policy));
  std::string error;
  if (!server.start(&error)) {
    // Unusable options (a policy the gate refuses at --m, an
    // unreadable/corrupt journal, a rotation request a stateful policy
    // cannot honor, a malformed address) are invalid-input failures:
    // exit 2, matching the rest of the CLI.
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 2;
  }
  if (!server.recovery_summary().empty()) {
    std::printf("%s\n", server.recovery_summary().c_str());
  }
  // Line-buffered and flushed so a supervising script (the CI smoke job)
  // can scrape the resolved ephemeral port before the first submission.
  std::printf("listening on %s\n", server.address().c_str());
  std::fflush(stdout);
  server.run();
  std::printf("drained: %lld jobs submitted, %lld finished\n",
              static_cast<long long>(server.jobs_submitted()),
              static_cast<long long>(server.jobs_finished()));
  return 0;
}

int CmdFaults(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string verb = argv[0];
  FaultArgs faults;
  int m = 0;

  if (verb == "emit") {
    // Freeze a stochastic model's first `horizon` slots into an explicit,
    // reviewable CSV budget trace.
    Time horizon = 0;
    std::string out;
    if (!ParseArgs("faults emit",
                   {FaultSpecArg("spec", &faults), MachinesArg("m", &m),
                    IntArg("horizon", &horizon, 1),
                    TextArg("out", &out)},
                   3, argc - 1, argv + 1)) {
      return 2;
    }
    if (!faults.spec.active()) {
      std::fprintf(stderr, "faults emit: model 'none' has no trace\n");
      return 2;
    }
    if (faults.spec.model == FaultModel::kAdversarialDip) {
      std::fprintf(stderr,
                   "faults emit: adversarial-dip depends on the run and has "
                   "no standalone trace\n");
      return 2;
    }
    const BudgetTrace trace = MaterializeBudgetTrace(faults.spec, m, horizon);
    if (!out.empty()) {
      if (!WriteFileOrComplain(out, trace.to_csv(), "budget trace")) {
        return 1;
      }
      std::printf("wrote %s: %zu faulted slots over horizon %lld (m=%d)\n",
                  out.c_str(), trace.entry_count(),
                  static_cast<long long>(horizon), m);
    } else {
      std::fputs(trace.to_csv().c_str(), stdout);
    }
    return 0;
  }

  if (verb == "inspect") {
    if (!ParseArgs("faults inspect",
                   {BudgetTraceArg("trace.csv", &faults),
                    MachinesArg("m", &m)},
                   2, argc - 1, argv + 1)) {
      return 2;
    }
    const BudgetTrace& trace = *faults.trace_storage;
    int min_capacity = m;
    std::int64_t shortfall = 0;
    std::int64_t faulted = 0;
    for (std::size_t i = 0; i < trace.entry_count(); ++i) {
      const Time slot = trace.entry(i).first;
      const int capacity = trace.capacity_at(slot, m);
      if (capacity < m) {
        ++faulted;
        shortfall += m - capacity;
      }
      if (capacity < min_capacity) min_capacity = capacity;
    }
    std::printf("entries        : %zu\n", trace.entry_count());
    std::printf("last pinned    : slot %lld\n",
                static_cast<long long>(trace.length()));
    std::printf("faulted slots  : %lld (of the pinned ones, at m=%d)\n",
                static_cast<long long>(faulted), m);
    std::printf("min capacity   : %d\n", min_capacity);
    std::printf("shortfall      : %lld processor-slots\n",
                static_cast<long long>(shortfall));
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "gen") return CmdGen(argc - 2, argv + 2);
  if (command == "adversary") return CmdAdversary(argc - 2, argv + 2);
  if (command == "bounds") return CmdBounds(argc - 2, argv + 2);
  if (command == "describe") return CmdDescribe(argc - 2, argv + 2);
  if (command == "run") return CmdRun(argc - 2, argv + 2);
  if (command == "sweep") return CmdSweep(argc - 2, argv + 2);
  if (command == "trace") return CmdTrace(argc - 2, argv + 2);
  if (command == "faults") return CmdFaults(argc - 2, argv + 2);
  if (command == "serve") return CmdServe(argc - 2, argv + 2);
  if (command == "list-policies" || command == "list-job-faults") {
    if (!ParseArgs(command, {}, 0, argc - 2, argv + 2)) return 2;
    if (command == "list-policies") {
      ListPolicies();
    } else {
      ListJobFaults();
    }
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}
