// Parallel parameter-sweep runner for the experiment harnesses.
//
// A sweep is a grid of independent cells (one (m, seed, config) point
// each); cells run across a thread pool and results come back in grid
// order regardless of completion order, so experiment tables are
// deterministic given the seeds.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sim/batch_runner.h"

namespace otsched {

/// Aggregates per-seed doubles into mean / min / max.
struct SeedAggregate {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

SeedAggregate Aggregate(const std::vector<double>& values);

/// Folds the per-cell registries of an instrumented batch into one
/// aggregate, in index order — the same order for every worker count, so
/// sweep metrics are deterministic exactly like sweep tables.
MetricsRegistry MergedMetrics(std::span<const MetricsRegistry> cells);

// ---- crash-tolerant checkpointing ----

/// The flow-level outcome of one sweep cell — everything the sweep table
/// needs, small enough to persist after every cell.
struct SweepCellRecord {
  std::size_t index = 0;
  int m = 1;
  std::uint64_t seed = 0;
  Time max_flow = 0;
  Time horizon = 0;
  std::int64_t busy_slots = 0;
  std::int64_t executed_subjobs = 0;
  std::int64_t idle_processor_slots = 0;
};

/// A crash-tolerant store of completed sweep cells.
///
/// The on-disk manifest is a line-oriented text file: a header that pins
/// the sweep's identity (instance fingerprint, policy, machine list,
/// seed count, record mode, fault spec) followed by one `cell` line per
/// completed cell.  Every record() REWRITES the whole manifest to
/// `<path>.tmp` and atomically renames it over `<path>`, so a SIGKILL at
/// any instant leaves either the previous complete manifest or the new
/// one — never a torn file.  resume() loads a manifest, REQUIRES the
/// header to match this sweep's identity (a checkpoint from a different
/// grid must not silently splice in), and returns the completed cells;
/// the runner then skips them, making `--resume` after a kill produce
/// output bit-identical to an uninterrupted run.
class SweepCheckpoint {
 public:
  struct Identity {
    std::string instance_hash;  // FingerprintInstance hex
    std::string policy;
    std::string machines;  // comma-joined m list
    int seeds = 0;
    std::string record;  // "full" | "flow-only"
    std::string faults;  // fault spec shorthand
  };

  SweepCheckpoint(std::string path, Identity identity);

  /// Loads an existing manifest at the path.  Returns false with a
  /// diagnostic in `error` when the file exists but its header does not
  /// match `identity` or it is unreadable; a missing file is a fresh
  /// start (returns true, nothing completed).  Malformed trailing cell
  /// lines are dropped, keeping every intact record before them.
  bool resume(std::string* error);

  /// Completed-cell lookup (nullopt = cell still pending).
  std::optional<SweepCellRecord> completed(std::size_t index) const;
  std::size_t completed_count() const;

  /// Records one finished cell and atomically persists the manifest.
  /// Thread-safe: sweep cells call this concurrently.
  void record(const SweepCellRecord& cell);

  const std::string& path() const { return path_; }

  /// Serialized manifest (header + completed cells in index order).
  std::string to_text() const;

 private:
  std::string serialize_locked() const;
  void persist_locked() const;

  std::string path_;
  Identity identity_;
  mutable std::mutex mutex_;
  std::map<std::size_t, SweepCellRecord> cells_;
};

}  // namespace otsched
