#include "sim/faults.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"
#include "sim/fault_hash.h"
#include "sim/ready_state.h"

namespace otsched {

namespace {

bool IsBlank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

std::string Strip(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

const char* ToString(FaultModel model) {
  switch (model) {
    case FaultModel::kNone:
      return "none";
    case FaultModel::kRandomBlip:
      return "random-blip";
    case FaultModel::kBurstOutage:
      return "burst-outage";
    case FaultModel::kAdversarialDip:
      return "adversarial-dip";
    case FaultModel::kTrace:
      return "trace";
  }
  return "?";
}

std::optional<FaultModel> ParseFaultModel(std::string_view name) {
  if (name == "none") return FaultModel::kNone;
  if (name == "random-blip") return FaultModel::kRandomBlip;
  if (name == "burst-outage") return FaultModel::kBurstOutage;
  if (name == "adversarial-dip") return FaultModel::kAdversarialDip;
  if (name == "trace") return FaultModel::kTrace;
  return std::nullopt;
}

// ---- BudgetTrace ----

std::optional<BudgetTrace> BudgetTrace::try_from_csv(const std::string& text,
                                                     std::string* error) {
  BudgetTrace trace;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& what) -> std::optional<BudgetTrace> {
    if (error != nullptr) {
      *error = "budget csv line " + std::to_string(line_number) + ": " + what;
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (IsBlank(line)) continue;
    const std::string stripped = Strip(line);
    if (stripped[0] == '#') continue;
    if (stripped == "slot,capacity") continue;  // optional header row
    const std::size_t comma = stripped.find(',');
    if (comma == std::string::npos) {
      return fail("malformed row '" + stripped +
                  "' (want <slot>,<capacity>)");
    }
    if (stripped.find(',', comma + 1) != std::string::npos) {
      return fail("trailing field in '" + stripped +
                  "' (want exactly <slot>,<capacity>)");
    }
    const std::string slot_token = Strip(stripped.substr(0, comma));
    const std::string cap_token = Strip(stripped.substr(comma + 1));
    Time slot = 0;
    if (!ParseNonNegative(slot_token, &slot) || slot < 1) {
      return fail("malformed slot '" + slot_token + "' (want integer >= 1)");
    }
    int capacity = 0;
    if (!ParseNonNegative(cap_token, &capacity)) {
      return fail("malformed capacity '" + cap_token +
                  "' (want integer >= 0)");
    }
    if (!trace.entries_.empty() && slot <= trace.entries_.back().first) {
      return fail("slot " + std::to_string(slot) +
                  " is not strictly after previous slot " +
                  std::to_string(trace.entries_.back().first));
    }
    trace.entries_.emplace_back(slot, capacity);
  }
  return trace;
}

std::string BudgetTrace::to_csv() const {
  std::ostringstream out;
  out << "slot,capacity\n";
  for (const auto& [slot, capacity] : entries_) {
    out << slot << ',' << capacity << '\n';
  }
  return out.str();
}

void BudgetTrace::set(Time slot, int capacity) {
  OTSCHED_CHECK(slot >= 1, "budget trace slot must be >= 1, got " << slot);
  OTSCHED_CHECK(capacity >= 0,
                "budget trace capacity must be >= 0, got " << capacity);
  OTSCHED_CHECK(entries_.empty() || slot > entries_.back().first,
                "budget trace slots must be strictly increasing ("
                    << slot << " after " << entries_.back().first << ")");
  entries_.emplace_back(slot, capacity);
}

int BudgetTrace::capacity_at(Time slot, int m) const {
  // Entries are ascending: binary search for an exact pin.
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (entries_[mid].first < slot) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < entries_.size() && entries_[lo].first == slot) {
    return ClampSlotCapacity(entries_[lo].second, m);
  }
  return m;
}

std::int64_t BudgetTrace::capacity_sum(Time first, Time last, int m) const {
  if (first > last) return 0;
  // Start from a fully healthy range and subtract what each pinned slot
  // in [first, last] takes away; entries are ascending so the pins in
  // range form one contiguous run.
  std::int64_t sum =
      static_cast<std::int64_t>(m) * (last - first + 1);
  auto begin = std::lower_bound(
      entries_.begin(), entries_.end(), first,
      [](const std::pair<Time, int>& e, Time t) { return e.first < t; });
  for (auto it = begin; it != entries_.end() && it->first <= last; ++it) {
    sum += ClampSlotCapacity(it->second, m) - m;
  }
  return sum;
}

// ---- FaultSpec ----

std::string ToString(const FaultSpec& spec) {
  std::ostringstream out;
  out << ToString(spec.model);
  if (spec.model == FaultModel::kRandomBlip ||
      spec.model == FaultModel::kBurstOutage) {
    out << ':' << spec.seed << ':' << spec.rate;
  } else if (spec.model == FaultModel::kAdversarialDip) {
    out << ':' << spec.seed << ':' << spec.floor;
  } else if (spec.model == FaultModel::kTrace) {
    out << ':' << (spec.trace != nullptr ? spec.trace->entry_count() : 0)
        << " entries";
  }
  return out.str();
}

std::optional<FaultSpec> ParseFaultSpec(std::string_view text,
                                        std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<FaultSpec> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  const std::vector<std::string> parts = SplitFields(text, ':');
  if (parts.size() > 3) {
    return fail("too many ':' fields in fault spec '" + std::string(text) +
                "' (want model[:seed[:rate]])");
  }
  FaultSpec spec;
  const std::optional<FaultModel> model = ParseFaultModel(parts[0]);
  if (!model.has_value()) {
    return fail("unknown fault model '" + parts[0] +
                "' (want none|random-blip|burst-outage|adversarial-dip)");
  }
  if (*model == FaultModel::kTrace) {
    return fail("fault model 'trace' takes a CSV file, not a spec string");
  }
  spec.model = *model;
  if (parts.size() >= 2) {
    if (!ParseNonNegative(parts[1], &spec.seed)) {
      return fail("malformed fault seed '" + parts[1] + "'");
    }
  }
  if (parts.size() >= 3) {
    if (spec.model == FaultModel::kAdversarialDip) {
      if (!ParseNonNegative(parts[2], &spec.floor)) {
        return fail("malformed dip floor '" + parts[2] +
                    "' (want integer >= 0)");
      }
    } else if (spec.model == FaultModel::kNone) {
      return fail("fault model 'none' takes no rate, got '" + parts[2] + "'");
    } else if (!ParseRate(parts[2], &spec.rate)) {
      return fail("malformed fault rate '" + parts[2] +
                  "' (want a number in [0, 0.9])");
    }
  }
  return spec;
}

void ValidateFaultSpec(const FaultSpec& spec) {
  if (!spec.active()) return;
  OTSCHED_CHECK(spec.rate >= 0.0 && spec.rate <= 0.9,
                "fault rate must be in [0, 0.9], got " << spec.rate);
  OTSCHED_CHECK(spec.burst_len >= 1,
                "fault burst_len must be >= 1, got " << spec.burst_len);
  OTSCHED_CHECK(spec.floor >= 0,
                "fault floor must be >= 0, got " << spec.floor);
  OTSCHED_CHECK(spec.model != FaultModel::kTrace || spec.trace != nullptr,
                "FaultModel::kTrace needs an attached BudgetTrace");
}

// ---- BudgetSequencer ----

BudgetSequencer::BudgetSequencer(const FaultSpec& spec, int m)
    : spec_(spec), m_(m) {
  OTSCHED_CHECK(m >= 1);
  ValidateFaultSpec(spec_);
}

int BudgetSequencer::capacity(Time slot, std::int64_t alive_count) {
  switch (spec_.model) {
    case FaultModel::kNone:
      return m_;
    case FaultModel::kRandomBlip: {
      // Each of the m processors fails independently this slot.
      int up = 0;
      for (int lane = 0; lane < m_; ++lane) {
        if (HashUnit(spec_.seed, static_cast<std::uint64_t>(slot),
                     static_cast<std::uint64_t>(lane)) >= spec_.rate) {
          ++up;
        }
      }
      return up;
    }
    case FaultModel::kBurstOutage: {
      // Correlated downtime: whole burst_len windows drop to the floor.
      const std::uint64_t window =
          static_cast<std::uint64_t>((slot - 1) / spec_.burst_len);
      const bool out = HashUnit(spec_.seed, window, 0x0Bu) < spec_.rate;
      return out ? ClampSlotCapacity(spec_.floor, m_) : m_;
    }
    case FaultModel::kAdversarialDip:
      // Starve exactly when the alive count reaches a NEW peak.  Strictly
      // greater, so a held peak recovers next slot and runs terminate:
      // at most job_count dips per run.
      if (alive_count > peak_alive_) {
        peak_alive_ = alive_count;
        return ClampSlotCapacity(spec_.floor, m_);
      }
      return m_;
    case FaultModel::kTrace:
      return spec_.trace->capacity_at(slot, m_);
  }
  return m_;
}

BudgetTrace MaterializeBudgetTrace(const FaultSpec& spec, int m,
                                   Time horizon) {
  OTSCHED_CHECK(spec.model != FaultModel::kAdversarialDip,
                "adversarial-dip depends on the run's alive stream and has "
                "no standalone trace form");
  OTSCHED_CHECK(horizon >= 1, "horizon must be >= 1, got " << horizon);
  BudgetSequencer sequencer(spec, m);
  BudgetTrace trace;
  for (Time slot = 1; slot <= horizon; ++slot) {
    const int capacity = sequencer.capacity(slot, /*alive_count=*/0);
    if (capacity < m) trace.set(slot, capacity);
  }
  return trace;
}

}  // namespace otsched
