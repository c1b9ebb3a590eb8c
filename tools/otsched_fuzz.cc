// Differential fuzz driver: grinds every registered scheduling policy
// against the paper-invariant oracles on seeded random instances.
//
//   otsched_fuzz --seeds 256                 # the full battery
//   otsched_fuzz --seeds 64 --max-jobs 12    # the CI smoke configuration
//   otsched_fuzz --replay results/fuzz-repros/repro_....inst
//
// Exit status 0 means zero invariant violations; 1 means at least one
// violation (each reported with a shrunk, serialized repro).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/diffrun.h"
#include "common/parse.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seeds N           fuzz seeds to run (default 64)\n"
      "  --seed-base N       offset added to every seed (default 1)\n"
      "  --max-jobs N        max jobs per generated instance (default 10)\n"
      "  --max-nodes N       max subjobs per generated job (default 36)\n"
      "  --machines A,B,..   machine sizes (default 1,2,3,4,8)\n"
      "  --alpha N           reduction factor for the Section 5 oracles "
      "(default 4)\n"
      "  --workers N         thread-pool width (default: hardware)\n"
      "  --repro-dir PATH    where to write shrunk repros (default\n"
      "                      results/fuzz-repros; empty string disables)\n"
      "  --shrink-evals N    shrink budget per failure (default 160)\n"
      "  --no-brute-force    skip the exhaustive-search cross-checks\n"
      "  --no-opt-certificates  skip the certified lower-bound oracle\n"
      "  --job-faults        add the job-fault legs (no-lost-work +\n"
      "                      committed feasibility) to every case\n"
      "  --replay FILE       re-run one serialized repro and exit (takes\n"
      "                      no other flag: the file carries the case)\n",
      argv0);
  std::exit(2);
}

/// Parses `value` as an integer >= `lo` that fits `Int` (digits only:
/// no sign, no blanks); anything else exits 2 with one diagnostic line.
template <typename Int>
Int ParseInt(const char* argv0, const char* flag, const std::string& value,
             Int lo) {
  Int parsed = 0;
  if (!otsched::ParseNonNegative(value, &parsed) || parsed < lo) {
    std::fprintf(stderr, "%s: %s needs an integer >= %lld, got '%s'\n",
                 argv0, flag, static_cast<long long>(lo), value.c_str());
    std::exit(2);
  }
  return parsed;
}

std::vector<int> ParseMachineList(const char* argv0, const char* value) {
  std::vector<int> machines;
  for (const std::string& cell : otsched::SplitFields(value, ',')) {
    if (!cell.empty()) {
      machines.push_back(ParseInt(argv0, "--machines", cell, 1));
    }
  }
  if (machines.empty()) {
    std::fprintf(stderr, "%s: --machines needs at least one size\n", argv0);
    std::exit(2);
  }
  return machines;
}

}  // namespace

int main(int argc, char** argv) {
  otsched::FuzzOptions options;
  options.repro_dir = "results/fuzz-repros";
  std::string replay_path;

  bool other_flags = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(arg, "--replay") == 0) {
      replay_path = value();
      continue;
    }
    other_flags = true;
    if (std::strcmp(arg, "--seeds") == 0) {
      options.seeds = ParseInt(argv[0], arg, value(), 1);
    } else if (std::strcmp(arg, "--seed-base") == 0) {
      options.seed_base = ParseInt<std::uint64_t>(argv[0], arg, value(), 0);
    } else if (std::strcmp(arg, "--max-jobs") == 0) {
      options.max_jobs = ParseInt(argv[0], arg, value(), 1);
    } else if (std::strcmp(arg, "--max-nodes") == 0) {
      options.max_job_nodes =
          ParseInt<otsched::NodeId>(argv[0], arg, value(), 1);
    } else if (std::strcmp(arg, "--machines") == 0) {
      options.machine_sizes = ParseMachineList(argv[0], value());
    } else if (std::strcmp(arg, "--alpha") == 0) {
      options.alpha = ParseInt(argv[0], arg, value(), 2);
    } else if (std::strcmp(arg, "--workers") == 0) {
      options.workers = ParseInt<std::size_t>(argv[0], arg, value(), 0);
    } else if (std::strcmp(arg, "--repro-dir") == 0) {
      options.repro_dir = value();
    } else if (std::strcmp(arg, "--shrink-evals") == 0) {
      options.max_shrink_evals = ParseInt(argv[0], arg, value(), 0);
    } else if (std::strcmp(arg, "--no-brute-force") == 0) {
      options.cross_check_brute_force = false;
    } else if (std::strcmp(arg, "--no-opt-certificates") == 0) {
      options.opt_certificates = false;
    } else if (std::strcmp(arg, "--job-faults") == 0) {
      options.job_faults = true;
    } else {
      Usage(argv[0]);
    }
  }

  if (!replay_path.empty()) {
    // The repro file carries the whole case; a grid flag next to it would
    // be silently ignored.
    if (other_flags) {
      std::fprintf(stderr, "%s: --replay takes no other flag\n", argv[0]);
      return 2;
    }
    std::ifstream in(replay_path);
    if (!in.good()) {
      std::fprintf(stderr, "cannot open repro file %s\n",
                   replay_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const otsched::FuzzReport report =
        otsched::ReplayRepro(text.str());
    if (report.ok()) {
      std::printf("replay of %s: violation no longer reproduces (%lld "
                  "oracle checks)\n",
                  replay_path.c_str(),
                  static_cast<long long>(report.oracle_checks));
      return 0;
    }
    std::fputs(report.summary().c_str(), stdout);
    return 1;
  }

  const otsched::FuzzReport report = otsched::RunDifferentialFuzz(options);
  std::fputs(report.summary().c_str(), stdout);
  return report.ok() ? 0 : 1;
}
