#include "analysis/sweep.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/assert.h"

namespace otsched {

SeedAggregate Aggregate(const std::vector<double>& values) {
  SeedAggregate agg;
  agg.count = values.size();
  if (values.empty()) return agg;
  agg.min = *std::min_element(values.begin(), values.end());
  agg.max = *std::max_element(values.begin(), values.end());
  double total = 0.0;
  for (double v : values) total += v;
  agg.mean = total / static_cast<double>(values.size());
  return agg;
}

MetricsRegistry MergedMetrics(std::span<const MetricsRegistry> cells) {
  MetricsRegistry merged;
  for (const MetricsRegistry& cell : cells) merged.merge_from(cell);
  return merged;
}

namespace {

constexpr const char* kCheckpointMagic = "otsched-sweep-checkpoint-v1";

}  // namespace

SweepCheckpoint::SweepCheckpoint(std::string path, Identity identity)
    : path_(std::move(path)), identity_(std::move(identity)) {}

bool SweepCheckpoint::resume(std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.clear();

  std::ifstream in(path_);
  if (!in.good()) return true;  // Nothing on disk yet: fresh start.

  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = path_ + ": " + what;
    cells_.clear();
    return false;
  };

  std::string line;
  if (!std::getline(in, line) || line != kCheckpointMagic) {
    return fail("not a sweep checkpoint (want " + std::string(kCheckpointMagic) +
                ")");
  }

  // The header pins the sweep's identity: resuming against a checkpoint
  // from a different instance / policy / grid would silently splice wrong
  // results into the table, so any mismatch is a hard (but recoverable)
  // error the CLI surfaces.
  auto expect_header = [&](const std::string& key,
                           const std::string& want) -> bool {
    if (!std::getline(in, line)) {
      fail("truncated header (missing '" + key + "')");
      return false;
    }
    std::istringstream fields(line);
    std::string got_key;
    fields >> got_key;
    std::string got_value;
    std::getline(fields, got_value);
    const std::size_t start = got_value.find_first_not_of(' ');
    got_value = start == std::string::npos ? "" : got_value.substr(start);
    if (got_key != key) {
      fail("header line '" + line + "' (want '" + key + " ...')");
      return false;
    }
    if (got_value != want) {
      fail("checkpoint is for a different sweep: " + key + " '" + got_value +
           "' vs this run's '" + want + "'");
      return false;
    }
    return true;
  };

  if (!expect_header("instance", identity_.instance_hash)) return false;
  if (!expect_header("policy", identity_.policy)) return false;
  if (!expect_header("machines", identity_.machines)) return false;
  if (!expect_header("seeds", std::to_string(identity_.seeds))) return false;
  if (!expect_header("record", identity_.record)) return false;
  if (!expect_header("faults", identity_.faults)) return false;

  // Cell lines.  A malformed line can only be the torn tail of a write
  // that never completed (every successful record() rewrites the file
  // atomically) — stop there and keep every intact record before it.
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    SweepCellRecord cell;
    if (!(fields >> keyword >> cell.index >> cell.m >> cell.seed >>
          cell.max_flow >> cell.horizon >> cell.busy_slots >>
          cell.executed_subjobs >> cell.idle_processor_slots) ||
        keyword != "cell") {
      break;
    }
    cells_[cell.index] = cell;
  }
  return true;
}

std::optional<SweepCellRecord> SweepCheckpoint::completed(
    std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cells_.find(index);
  if (it == cells_.end()) return std::nullopt;
  return it->second;
}

std::size_t SweepCheckpoint::completed_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.size();
}

void SweepCheckpoint::record(const SweepCellRecord& cell) {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_[cell.index] = cell;
  persist_locked();
}

std::string SweepCheckpoint::to_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return serialize_locked();
}

std::string SweepCheckpoint::serialize_locked() const {
  std::ostringstream out;
  out << kCheckpointMagic << '\n';
  out << "instance " << identity_.instance_hash << '\n';
  out << "policy " << identity_.policy << '\n';
  out << "machines " << identity_.machines << '\n';
  out << "seeds " << identity_.seeds << '\n';
  out << "record " << identity_.record << '\n';
  out << "faults " << identity_.faults << '\n';
  for (const auto& [index, cell] : cells_) {
    out << "cell " << index << ' ' << cell.m << ' ' << cell.seed << ' '
        << cell.max_flow << ' ' << cell.horizon << ' ' << cell.busy_slots
        << ' ' << cell.executed_subjobs << ' ' << cell.idle_processor_slots
        << '\n';
  }
  return out.str();
}

void SweepCheckpoint::persist_locked() const {
  // Full rewrite to a sibling tmp file, then an atomic rename: readers
  // (and a resume after SIGKILL) only ever see a complete manifest.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    OTSCHED_CHECK(out.good(), "cannot open " << tmp << " for writing");
    out << serialize_locked();
    out.flush();
    OTSCHED_CHECK(out.good(), "write failure on " << tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  OTSCHED_CHECK(!ec, "cannot rename " << tmp << " over " << path_ << ": "
                                      << ec.message());
}

}  // namespace otsched
