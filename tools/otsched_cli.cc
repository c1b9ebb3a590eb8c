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
//   otsched trace <in.inst> <m> <policy> [--seed S] [--opt V] [--out F]
//       [--record full|flow]                      stream the event trace
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
// Exit status is nonzero on usage errors; malformed input files (instance
// text, budget CSV, fault specs) print a per-line diagnostic to stderr and
// exit 2 instead of aborting.  All numeric output goes to stdout so it can
// be piped.  --metrics emits the observability JSON documented in
// docs/OBSERVABILITY.md (schema: tools/metrics_schema.json).  Fault specs
// (`--faults`) use the `model[:seed[:rate]]` shorthand from
// docs/ROBUSTNESS.md; `sweep --checkpoint` + `--resume` give crash-tolerant
// sweeps with bit-identical output.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/instance_stats.h"
#include "analysis/ratio.h"
#include "analysis/sweep.h"
#include "analysis/timeseries.h"
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
      "              [--record full|flow]  (default: full)\n"
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

/// Parses a `--record` value (`full` or `flow`); both the two-token
/// `--record flow` and the one-token `--record=flow` spellings reach
/// here.  Complains and returns false on anything else.
bool ParseRecordMode(const char* value, RecordMode* mode) {
  if (std::strcmp(value, "full") == 0) {
    *mode = RecordMode::kFull;
    return true;
  }
  if (std::strcmp(value, "flow") == 0 ||
      std::strcmp(value, "flow-only") == 0) {
    *mode = RecordMode::kFlowOnly;
    return true;
  }
  std::fprintf(stderr, "unknown record mode '%s' (want full|flow)\n", value);
  return false;
}

/// Recoverable instance loading: malformed or unreadable files print the
/// parser's per-line diagnostic to stderr and return nullopt (callers
/// exit 2), instead of the old CHECK-abort on a typo in a hand-edited
/// file.
std::optional<Instance> LoadInstanceOrComplain(const char* path) {
  std::string error;
  std::optional<Instance> instance = TryLoadInstance(path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return instance;
}

/// Shared fault-flag state for `run` and `sweep`.  The BudgetTrace is
/// owned here so a kTrace spec's borrowed pointer outlives the run.
struct FaultArgs {
  FaultSpec spec;
  std::optional<BudgetTrace> trace_storage;
};

/// Parses `--faults MODEL[:SEED[:RATE]]`.  Diagnoses and returns false on
/// malformed specs (exit 2 at the call sites).
bool ParseFaultsFlagOrComplain(const char* value, FaultArgs* faults) {
  std::string error;
  std::optional<FaultSpec> spec = ParseFaultSpec(value, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  faults->spec = *spec;
  return true;
}

/// Parses `--faults-trace F`: loads a budget CSV and makes it the active
/// fault model (overrides any `--faults` model choice).
bool LoadFaultsTraceOrComplain(const char* path, FaultArgs* faults) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  std::optional<BudgetTrace> trace =
      BudgetTrace::try_from_csv(buffer.str(), &error);
  if (!trace.has_value()) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return false;
  }
  faults->trace_storage = *std::move(trace);
  faults->spec.model = FaultModel::kTrace;
  faults->spec.trace = &*faults->trace_storage;
  return true;
}

/// Shared job-fault flag state for `run` and `sweep` (sim/job_faults.h).
/// `policy_set` distinguishes "--checkpoint-policy never given" from the
/// default, so a stray --checkpoint-policy without --job-faults diagnoses.
struct JobFaultArgs {
  JobFaultSpec spec;
  bool policy_set = false;
};

/// Parses `--job-faults MODEL[:SEED[:PARAM]]`, preserving any checkpoint
/// policy already parsed (the two flags may come in either order).
/// Diagnoses and returns false on malformed specs (exit 2 at call sites).
bool ParseJobFaultsFlagOrComplain(const char* value, JobFaultArgs* args) {
  std::string error;
  std::optional<JobFaultSpec> spec = ParseJobFaultSpec(value, &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  spec->checkpoint = args->spec.checkpoint;
  spec->checkpoint_every = args->spec.checkpoint_every;
  args->spec = *spec;
  return true;
}

/// Parses `--checkpoint-policy on-completion|every-slots:K|every-subjobs:K`
/// into the shared spec.  Diagnoses and returns false on malformed input.
bool ParseCheckpointPolicyOrComplain(const char* value, JobFaultArgs* args) {
  std::string error;
  if (!ParseCheckpointPolicyInto(value, &args->spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  args->policy_set = true;
  return true;
}

/// Refuses what the engines cannot run (RunSupportError) with its reason,
/// plus the CLI-only orphan --checkpoint-policy, instead of tripping an
/// engine CHECK.
bool CheckRunSupportOrComplain(const Scheduler& policy,
                               const SimOptions& options,
                               const JobFaultArgs& job_faults) {
  if (job_faults.policy_set && !job_faults.spec.active()) {
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

/// The unknown-policy diagnostic, shared by run/sweep/trace/serve.
/// Always exits 2 at the call site.
void ComplainUnknownPolicy(const std::string& name) {
  std::fprintf(stderr,
               "unknown policy '%s' (try `otsched list-policies`)\n",
               name.c_str());
}

int CmdGen(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string family = argv[0];

  auto save = [&](Instance instance, const char* path) {
    SaveInstance(instance, path);
    std::printf("wrote %s: %d jobs, %lld subjobs, releases %lld..%lld\n",
                path, instance.job_count(),
                static_cast<long long>(instance.total_work()),
                static_cast<long long>(instance.min_release()),
                static_cast<long long>(instance.max_release()));
    return 0;
  };

  if (family == "quicksort" && argc == 6) {
    const std::int64_t jobs = std::atoll(argv[1]);
    const std::int64_t n = std::atoll(argv[2]);
    const double rate = 1.0 / std::strtod(argv[3], nullptr);
    Rng rng(std::strtoull(argv[4], nullptr, 10));
    Instance instance = MakePoissonArrivals(
        jobs, rate,
        [n](std::int64_t, Rng& r) {
          QuicksortOptions q;
          q.n = n;
          q.grain = std::max<std::int64_t>(1, n / 32);
          q.cutoff = q.grain;
          return MakeQuicksortTree(q, r);
        },
        rng);
    return save(std::move(instance), argv[5]);
  }
  if (family == "trees" && argc == 6) {
    const std::int64_t jobs = std::atoll(argv[1]);
    const NodeId size = static_cast<NodeId>(std::atoi(argv[2]));
    const Time period = std::atoll(argv[3]);
    Rng rng(std::strtoull(argv[4], nullptr, 10));
    Instance instance = MakePeriodicArrivals(
        jobs, period,
        [size](std::int64_t i, Rng& r) {
          return MakeTree(static_cast<TreeFamily>(i % 4), size, r);
        },
        rng);
    return save(std::move(instance), argv[5]);
  }
  if ((family == "saturated" || family == "pipelined") && argc == 6) {
    const int m = std::atoi(argv[1]);
    const Time delta = std::atoll(argv[2]);
    const int batches = std::atoi(argv[3]);
    Rng rng(std::strtoull(argv[4], nullptr, 10));
    CertifiedInstance cert =
        family == "saturated"
            ? MakeSpacedSaturatedInstance(m, delta, batches, rng)
            : MakePipelinedSemiBatchedInstance(m, delta, batches, rng);
    std::printf("certified OPT on m=%d: %lld\n", m,
                static_cast<long long>(cert.opt));
    return save(std::move(cert.instance), argv[5]);
  }
  return Usage();
}

int CmdAdversary(int argc, char** argv) {
  if (argc != 3) return Usage();
  LowerBoundSimOptions options;
  options.m = std::atoi(argv[0]);
  options.num_jobs = std::atoll(argv[1]);
  const AdversarialInstance adv = MakeAdversarialInstance(options);
  SaveInstance(adv.instance, argv[2]);
  std::printf(
      "wrote %s: m=%d, %lld jobs, certified OPT <= %lld\n"
      "co-simulated arbitrary-FIFO max flow: %lld (ratio %.2f)\n",
      argv[2], options.m, static_cast<long long>(options.num_jobs),
      static_cast<long long>(adv.fifo_run.certified_opt_upper),
      static_cast<long long>(adv.fifo_run.max_flow),
      static_cast<double>(adv.fifo_run.max_flow) /
          static_cast<double>(adv.fifo_run.certified_opt_upper));
  return 0;
}

int CmdDescribe(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::optional<Instance> instance = LoadInstanceOrComplain(argv[0]);
  if (!instance.has_value()) return 2;
  const int m = argc >= 2 ? std::atoi(argv[1]) : 1;
  std::printf("%s\n", ToString(ComputeInstanceStats(*instance, m)).c_str());
  return 0;
}

int CmdBounds(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::optional<Instance> loaded = LoadInstanceOrComplain(argv[0]);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  const int m = std::atoi(argv[1]);
  if (m < 1) {
    std::fprintf(stderr, "bounds need a machine: m >= 1, got %d\n", m);
    return 2;
  }
  bool certify = false;
  std::string manifest_path;
  FaultArgs faults;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--certify") == 0) {
      certify = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    if (std::strcmp(argv[i], "--faults-trace") == 0) {
      if (!LoadFaultsTraceOrComplain(argv[i + 1], &faults)) return 2;
    } else if (std::strcmp(argv[i], "--manifest") == 0) {
      manifest_path = argv[i + 1];
    } else {
      return Usage();
    }
    ++i;
  }
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
  if (argc < 3) return Usage();
  const std::optional<Instance> loaded = LoadInstanceOrComplain(argv[0]);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  const int m = std::atoi(argv[1]);
  // The policy is positional, or spelled explicitly as `--policy <name>`.
  int first_flag = 3;
  std::string policy_name;
  if (std::strcmp(argv[2], "--policy") == 0) {
    if (argc < 4) return Usage();
    policy_name = argv[3];
    first_flag = 4;
  } else {
    policy_name = argv[2];
  }
  Time render = 0;
  std::uint64_t seed = 1;
  Time known_opt = 0;
  std::string svg_path;
  std::string trace_path;
  std::string timeseries_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  std::string manifest_path;
  RecordMode record = RecordMode::kFull;
  bool record_set = false;
  FaultArgs faults;
  JobFaultArgs job_faults;
  bool certify = false;
  for (int i = first_flag; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record=", 9) == 0) {
      if (!ParseRecordMode(argv[i] + 9, &record)) return 2;
      record_set = true;
      continue;
    }
    if (std::strcmp(argv[i], "--certify") == 0) {
      certify = true;
      continue;
    }
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--record") == 0) {
      if (!ParseRecordMode(argv[i + 1], &record)) return 2;
      record_set = true;
    }
    if (std::strcmp(argv[i], "--faults") == 0) {
      if (!ParseFaultsFlagOrComplain(argv[i + 1], &faults)) return 2;
    }
    if (std::strcmp(argv[i], "--faults-trace") == 0) {
      if (!LoadFaultsTraceOrComplain(argv[i + 1], &faults)) return 2;
    }
    if (std::strcmp(argv[i], "--job-faults") == 0) {
      if (!ParseJobFaultsFlagOrComplain(argv[i + 1], &job_faults)) return 2;
    }
    if (std::strcmp(argv[i], "--checkpoint-policy") == 0) {
      if (!ParseCheckpointPolicyOrComplain(argv[i + 1], &job_faults)) {
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--policy") == 0) policy_name = argv[i + 1];
    if (std::strcmp(argv[i], "--render") == 0) render = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--opt") == 0) known_opt = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--svg") == 0) svg_path = argv[i + 1];
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--timeseries") == 0) {
      timeseries_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--metrics") == 0) metrics_path = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-csv") == 0) {
      metrics_csv_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--manifest") == 0) manifest_path = argv[i + 1];
    ++i;
  }

  std::unique_ptr<Scheduler> policy = MakePolicy(policy_name, seed, known_opt);
  if (!policy) {
    ComplainUnknownPolicy(policy_name);
    return 2;
  }
  // Job faults force flow-only recording; an unset --record follows along,
  // an explicit --record full diagnoses.
  if (job_faults.spec.active() && !record_set) record = RecordMode::kFlowOnly;
  SimOptions run_options;
  run_options.record = record;
  run_options.faults = faults.spec;
  run_options.job_faults = job_faults.spec;
  if (!CheckRunSupportOrComplain(*policy, run_options, job_faults)) return 2;
  if (job_faults.spec.active() &&
      (render > 0 || !svg_path.empty() || !timeseries_path.empty())) {
    std::fprintf(stderr,
                 "--render/--svg/--timeseries walk a materialized schedule "
                 "and are incompatible with --job-faults\n");
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
  RatioMeasurement r = MeasureRatio(instance, m, *policy, known_opt, context);
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
  if (job_faults.spec.active()) {
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

  if (render > 0 || !svg_path.empty() || !timeseries_path.empty()) {
    // Re-run to obtain the schedule (MeasureRatio does not retain it).
    // Always full-record here regardless of --record: the ASCII renderer,
    // the SVG renderer, and the time-series derivation all walk the
    // materialized slot-by-slot schedule.
    std::unique_ptr<Scheduler> again = MakePolicy(policy_name, seed, known_opt);
    SimOptions render_options;
    render_options.faults = faults.spec;
    const SimResult sim = Simulate(instance, m, *again, render_options);
    if (render > 0) {
      RenderOptions options;
      options.to_slot = render;
      std::printf("\nfirst %lld slots:\n%s", static_cast<long long>(render),
                  RenderSchedule(sim.full_schedule(), instance,
                                 options).c_str());
    }
    if (!svg_path.empty()) {
      SvgOptions options;
      options.title = policy_name + " on " + argv[0];
      SaveScheduleSvg(sim.full_schedule(), instance, svg_path, options);
      std::printf("\nSVG written to %s\n", svg_path.c_str());
    }
    if (!timeseries_path.empty()) {
      std::ofstream out(timeseries_path);
      out << ComputeTimeSeries(sim.full_schedule(), instance).to_csv();
      std::printf("time series written to %s\n", timeseries_path.c_str());
    }
  }
  return 0;
}

int CmdSweep(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::optional<Instance> loaded = LoadInstanceOrComplain(argv[0]);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  const std::string policy_name = argv[1];

  std::vector<int> machines = {2, 4};
  int seeds = 3;
  std::size_t workers = 0;
  Time known_opt = 0;
  std::string metrics_path;
  std::string csv_path;
  std::string checkpoint_path;
  bool resume = false;
  FaultArgs faults;
  JobFaultArgs job_faults;
  // Sweeps only read flows and stats, so cells default to flow-only
  // recording; `--record full` restores schedule materialization.
  RecordMode record = RecordMode::kFlowOnly;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record=", 9) == 0) {
      if (!ParseRecordMode(argv[i] + 9, &record)) return 2;
      continue;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
      continue;
    }
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--record") == 0) {
      if (!ParseRecordMode(argv[i + 1], &record)) return 2;
    }
    if (std::strcmp(argv[i], "--faults") == 0) {
      if (!ParseFaultsFlagOrComplain(argv[i + 1], &faults)) return 2;
    }
    if (std::strcmp(argv[i], "--faults-trace") == 0) {
      if (!LoadFaultsTraceOrComplain(argv[i + 1], &faults)) return 2;
    }
    if (std::strcmp(argv[i], "--job-faults") == 0) {
      if (!ParseJobFaultsFlagOrComplain(argv[i + 1], &job_faults)) return 2;
    }
    if (std::strcmp(argv[i], "--checkpoint-policy") == 0) {
      if (!ParseCheckpointPolicyOrComplain(argv[i + 1], &job_faults)) {
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--m") == 0) {
      machines.clear();
      std::string list = argv[i + 1];
      for (char& c : list) {
        if (c == ',') c = ' ';
      }
      std::istringstream in(list);
      int m = 0;
      while (in >> m) machines.push_back(m);
    }
    if (std::strcmp(argv[i], "--seeds") == 0) seeds = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--opt") == 0) known_opt = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--metrics") == 0) metrics_path = argv[i + 1];
    if (std::strcmp(argv[i], "--csv") == 0) csv_path = argv[i + 1];
    ++i;
  }
  if (machines.empty() || seeds < 1) return Usage();
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    return 2;
  }
  if (!checkpoint_path.empty() &&
      (!metrics_path.empty() || !csv_path.empty() ||
       record == RecordMode::kFull)) {
    // Checkpointed cells are flow-only and un-instrumented: their persisted
    // flow records ARE the output, so a resumed run stays bit-identical to
    // an uninterrupted one.  Full recording / merged metrics would need the
    // skipped cells re-run, defeating the point.
    std::fprintf(stderr,
                 "--checkpoint is incompatible with --metrics, --csv and "
                 "--record full\n");
    return 2;
  }
  SimOptions sweep_options;
  sweep_options.record = record;
  sweep_options.faults = faults.spec;
  sweep_options.job_faults = job_faults.spec;
  {
    const std::unique_ptr<Scheduler> probe =
        MakePolicy(policy_name, 1, known_opt);
    if (!probe) {
      ComplainUnknownPolicy(policy_name);
      return 2;
    }
    if (!CheckRunSupportOrComplain(*probe, sweep_options, job_faults)) {
      return 2;
    }
  }

  // Grid: machines x seeds, in row-major order; cell i uses seed
  // (i % seeds) + 1 on machines[i / seeds].
  std::vector<std::pair<const Instance*, int>> cells;
  for (int m : machines) {
    for (int s = 0; s < seeds; ++s) cells.emplace_back(&instance, m);
  }
  const BatchRunner runner(workers);

  if (!checkpoint_path.empty()) {
    SweepCheckpoint::Identity identity;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      FingerprintInstance(instance)));
    identity.instance_hash = hex;
    identity.policy = policy_name;
    {
      std::string joined;
      for (std::size_t mi = 0; mi < machines.size(); ++mi) {
        if (mi > 0) joined += ',';
        joined += std::to_string(machines[mi]);
      }
      identity.machines = joined;
    }
    identity.seeds = seeds;
    identity.record = "flow-only";
    identity.faults = ToString(faults.spec);
    if (job_faults.spec.active()) {
      // The job-fault axis folds into the fault identity string: a resumed
      // sweep must replay the exact same crash/checkpoint streams.
      identity.faults += "+" + ToString(job_faults.spec) + "@" +
                         CheckpointPolicyString(job_faults.spec);
    }
    SweepCheckpoint checkpoint(checkpoint_path, identity);
    if (resume) {
      std::string error;
      if (!checkpoint.resume(&error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
    const std::vector<SweepCellRecord> records =
        runner.Map<SweepCellRecord>(cells.size(), [&](std::size_t i) {
          if (std::optional<SweepCellRecord> done = checkpoint.completed(i)) {
            return *done;  // Survived the previous run: skip the sim.
          }
          const auto& [inst, m] = cells[i];
          std::unique_ptr<Scheduler> policy = MakePolicy(
              policy_name,
              static_cast<std::uint64_t>(i % static_cast<std::size_t>(seeds)) +
                  1,
              known_opt);
          SimOptions options = FlowOnlyOptions();
          options.faults = faults.spec;
          options.job_faults = job_faults.spec;
          const SimResult result = Simulate(*inst, m, *policy, options);
          SweepCellRecord cell;
          cell.index = i;
          cell.m = m;
          cell.seed = (i % static_cast<std::size_t>(seeds)) + 1;
          cell.max_flow = result.flows.max_flow;
          cell.horizon = result.stats.horizon;
          cell.busy_slots = result.stats.busy_slots;
          cell.executed_subjobs = result.stats.executed_subjobs;
          cell.idle_processor_slots = result.stats.idle_processor_slots;
          checkpoint.record(cell);
          return cell;
        });

    // The table is derived purely from the records, so a fresh run, a
    // checkpointed run, and a killed-and-resumed run print byte-identical
    // tables (the CI crash-tolerance gate diffs exactly this).
    TextTable table({"m", "max-flow mean", "min", "max"});
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      std::vector<double> flows;
      for (int s = 0; s < seeds; ++s) {
        flows.push_back(static_cast<double>(
            records[mi * static_cast<std::size_t>(seeds) +
                    static_cast<std::size_t>(s)]
                .max_flow));
      }
      const SeedAggregate agg = Aggregate(flows);
      table.row("m=" + std::to_string(machines[mi]), agg.mean, agg.min,
                agg.max);
    }
    table.print(policy_name + " on " + argv[0] + ", " +
                std::to_string(seeds) + " seeds:");
    return 0;
  }
  // Pick wall times stay off so the aggregate is identical for any
  // --workers value (the determinism contract of every sweep table).
  MetricsObserver::Options observer_options;
  observer_options.record_pick_times = false;
  const std::vector<BatchRunner::InstrumentedRun> runs =
      runner.RunInstrumentedSimulations(
          cells,
          [&](std::size_t i) {
            return MakePolicy(policy_name,
                              static_cast<std::uint64_t>(i % seeds) + 1,
                              known_opt);
          },
          sweep_options, observer_options);

  TextTable table({"m", "max-flow mean", "min", "max"});
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    std::vector<double> flows;
    for (int s = 0; s < seeds; ++s) {
      flows.push_back(static_cast<double>(
          runs[mi * static_cast<std::size_t>(seeds) +
               static_cast<std::size_t>(s)]
              .result.flows.max_flow));
    }
    const SeedAggregate agg = Aggregate(flows);
    table.row("m=" + std::to_string(machines[mi]), agg.mean, agg.min,
              agg.max);
  }
  table.print(policy_name + " on " + argv[0] + ", " +
              std::to_string(seeds) + " seeds:");

  if (!metrics_path.empty() || !csv_path.empty()) {
    MetricsRegistry merged = MergedMetrics(runs);
    RunManifest manifest = MakeRunManifest(instance, machines.front(),
                                           policy_name, 1, sweep_options);
    manifest.m = machines.front();
    WriteManifest(merged, manifest);
    merged.set_manifest("cells", static_cast<std::int64_t>(cells.size()));
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
  if (argc < 3) return Usage();
  const std::optional<Instance> loaded = LoadInstanceOrComplain(argv[0]);
  if (!loaded.has_value()) return 2;
  const Instance& instance = *loaded;
  const int m = std::atoi(argv[1]);
  const std::string policy_name = argv[2];
  std::uint64_t seed = 1;
  Time known_opt = 0;
  std::string out_path;
  RecordMode record = RecordMode::kFull;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record=", 9) == 0) {
      if (!ParseRecordMode(argv[i] + 9, &record)) return 2;
      continue;
    }
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--record") == 0) {
      if (!ParseRecordMode(argv[i + 1], &record)) return 2;
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--opt") == 0) known_opt = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    ++i;
  }
  std::unique_ptr<Scheduler> policy = MakePolicy(policy_name, seed, known_opt);
  if (!policy) {
    ComplainUnknownPolicy(policy_name);
    return 2;
  }
  EventTrace streamed;
  StreamingTraceObserver trace_observer(streamed);
  RunContext context;
  // The trace streams from the hooks, so flow-only works here too; full
  // stays the default for symmetry with `run`.
  context.options.record = record;
  context.observer = &trace_observer;
  Simulate(instance, m, *policy, context);
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

/// Parses a nonnegative integer CLI value; complains naming the flag
/// and returns false on anything else (including trailing garbage).
bool ParseServeCount(const char* flag, const char* text, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0) {
    std::fprintf(stderr, "serve: %s needs a nonnegative integer, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = value;
  return true;
}

int CmdServe(int argc, char** argv) {
  serve::ServeOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (arg == "--help" || arg == "-h") {
      PrintServeHelp();
      return 0;
    } else if (arg == "--listen" && i + 1 < argc) {
      options.listen = argv[++i];
    } else if (arg == "--m" && i + 1 < argc) {
      options.m = std::atoi(argv[++i]);
    } else if (arg == "--policy" && i + 1 < argc) {
      options.policy = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chunk" && i + 1 < argc) {
      options.chunk_slots = std::atoll(argv[++i]);
    } else if (arg == "--journal" && i + 1 < argc) {
      options.journal_path = argv[++i];
    } else if (arg == "--recover" && i + 1 < argc) {
      options.recover_path = argv[++i];
    } else if (arg == "--journal-rotate") {
      options.journal_rotate = true;
    } else if (arg == "--snapshot-every" && i + 1 < argc) {
      if (!ParseServeCount("--snapshot-every", argv[++i], &value)) return 2;
      options.snapshot_every = value;
    } else if (arg == "--max-line" && i + 1 < argc) {
      if (!ParseServeCount("--max-line", argv[++i], &value)) return 2;
      if (value < 1) {
        std::fprintf(stderr, "serve: --max-line needs at least 1 byte\n");
        return 2;
      }
      options.max_line_bytes = static_cast<std::size_t>(value);
    } else if (arg == "--max-conns" && i + 1 < argc) {
      if (!ParseServeCount("--max-conns", argv[++i], &value)) return 2;
      options.max_connections = static_cast<std::size_t>(value);
    } else if (arg == "--max-pending" && i + 1 < argc) {
      if (!ParseServeCount("--max-pending", argv[++i], &value)) return 2;
      options.max_pending_jobs = value;
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      if (!ParseServeCount("--idle-timeout-ms", argv[++i], &value)) return 2;
      options.idle_timeout_ms = static_cast<int>(value);
    } else if (arg == "--journal" || arg == "--recover") {
      std::fprintf(stderr, "serve: %s needs a path\n", arg.c_str());
      return 2;
    } else {
      std::fprintf(stderr,
                   "serve: unknown argument '%s' (try otsched serve --help)\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (options.m < 1) {
    std::fprintf(stderr, "serve: need --m >= 1\n");
    return 2;
  }
  std::unique_ptr<Scheduler> policy =
      MakePolicy(options.policy, options.seed);
  if (policy == nullptr) {
    ComplainUnknownPolicy(options.policy);
    return 2;
  }

  static volatile std::sig_atomic_t stop_flag = 0;
  options.stop_flag = &stop_flag;
  if (!serve::InstallStopSignalHandlers(&stop_flag)) {
    std::fprintf(stderr, "serve: cannot install signal handlers\n");
    return 1;
  }

  serve::ScheduleServer server(options, std::move(policy));
  std::string error;
  if (!server.start(&error)) {
    // Unusable options (an unreadable/corrupt journal, a rotation
    // request a stateful policy cannot honor, a malformed address) are
    // invalid-input failures: exit 2, matching the rest of the CLI.
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

  if (verb == "emit" && (argc == 4 || argc == 5)) {
    // Freeze a stochastic model's first `horizon` slots into an explicit,
    // reviewable CSV budget trace.
    FaultArgs faults;
    if (!ParseFaultsFlagOrComplain(argv[1], &faults)) return 2;
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
    const int m = std::atoi(argv[2]);
    const Time horizon = std::atoll(argv[3]);
    if (m < 1 || horizon < 1) {
      std::fprintf(stderr, "faults emit: need m >= 1 and horizon >= 1\n");
      return 2;
    }
    const BudgetTrace trace = MaterializeBudgetTrace(faults.spec, m, horizon);
    if (argc == 5) {
      if (!WriteFileOrComplain(argv[4], trace.to_csv(), "budget trace")) {
        return 1;
      }
      std::printf("wrote %s: %zu faulted slots over horizon %lld (m=%d)\n",
                  argv[4], trace.entry_count(),
                  static_cast<long long>(horizon), m);
    } else {
      std::fputs(trace.to_csv().c_str(), stdout);
    }
    return 0;
  }

  if (verb == "inspect" && argc == 3) {
    FaultArgs faults;
    if (!LoadFaultsTraceOrComplain(argv[1], &faults)) return 2;
    const BudgetTrace& trace = *faults.trace_storage;
    const int m = std::atoi(argv[2]);
    if (m < 1) {
      std::fprintf(stderr, "faults inspect: need m >= 1\n");
      return 2;
    }
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
  if (command == "list-policies") {
    ListPolicies();
    return 0;
  }
  if (command == "list-job-faults") {
    ListJobFaults();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}
