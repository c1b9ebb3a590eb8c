// Processor fault injection: per-slot capacity budgets m_t <= m.
//
// Lemma 5.5 is the paper's one statement about a degraded machine: a
// Most-Children replay under a *fluctuating* per-step budget never wastes
// a processor until the job is done.  This header makes that setting a
// first-class simulation axis.  A FaultSpec selects a deterministic,
// seeded fault model; a BudgetSequencer turns the spec into the per-slot
// capacity stream both engines consume (sim/engine.cc and
// sim/engine_reference.cc query identical streams, so the
// engine-equivalence gate extends verbatim to faulted runs).
//
// Determinism contract: the stochastic models (kRandomBlip, kBurstOutage)
// are counter-based — capacity is a pure function of (seed, slot), never
// of how many slots were visited — so fast-forwarded stretches cannot
// desynchronize two engines, and a replayed repro sees the same outages.
// kAdversarialDip is stateful but only on the alive-count stream, which
// the equivalence gate already proves identical across engines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace otsched {

enum class FaultModel {
  kNone,            // full capacity every slot (the default; zero overhead)
  kRandomBlip,      // iid per-processor failures/repairs each slot
  kBurstOutage,     // correlated downtime windows of burst_len slots
  kAdversarialDip,  // starve exactly when the alive count reaches a new peak
  kTrace,           // explicit per-slot capacities from a BudgetTrace
};

const char* ToString(FaultModel model);

/// Parses a model name ("none", "random-blip", "burst-outage",
/// "adversarial-dip", "trace"); nullopt for unknown names.
std::optional<FaultModel> ParseFaultModel(std::string_view name);

/// An explicit per-slot capacity trace.  Each entry pins the capacity of
/// one slot; unlisted slots — gaps between entries and everything beyond
/// the last entry — run at full capacity m.  A trace shorter than the run
/// therefore means "the machine recovers": the documented semantics the
/// MostChildren edge-budget tests (tests/mc_test.cc) enforce.
class BudgetTrace {
 public:
  /// Parses the CSV trace format: one `slot,capacity` row per line, slots
  /// strictly increasing and >= 1, capacities >= 0; blank lines and
  /// `#`-comments are skipped, and an optional `slot,capacity` header row
  /// is accepted.  On failure returns nullopt and writes a per-line
  /// diagnostic ("budget csv line N: ...") to `error`, like
  /// TryInstanceFromText.
  static std::optional<BudgetTrace> try_from_csv(const std::string& text,
                                                 std::string* error);

  /// Serializes back to the CSV format (with header row).
  std::string to_csv() const;

  /// Pins the capacity of `slot` (>= 1, strictly after any existing
  /// entry; `capacity` >= 0).
  void set(Time slot, int capacity);

  /// Capacity of `slot` on an m-processor machine: the pinned value
  /// clamped into [0, m], or m when the slot is not pinned.
  int capacity_at(Time slot, int m) const;

  /// Total capacity of the slot range [first, last] on an m-processor
  /// machine (0 for an empty range): the exact processor-slot supply the
  /// certified lower bounds in opt/ charge against.  O(log + pins in
  /// range).
  std::int64_t capacity_sum(Time first, Time last, int m) const;

  /// Last pinned slot (0 when empty): beyond this the machine is healthy.
  Time length() const { return entries_.empty() ? 0 : entries_.back().first; }

  bool empty() const { return entries_.empty(); }
  std::size_t entry_count() const { return entries_.size(); }
  std::pair<Time, int> entry(std::size_t i) const { return entries_[i]; }

 private:
  std::vector<std::pair<Time, int>> entries_;  // (slot, capacity), ascending
};

/// Capacity of [first, last] under an optional trace: m per slot when
/// `trace` is null, BudgetTrace::capacity_sum otherwise.  The null form
/// is what lets opt/'s certified bounds treat healthy and faulted
/// machines uniformly.
inline std::int64_t SlotCapacitySum(const BudgetTrace* trace, Time first,
                                    Time last, int m) {
  if (first > last) return 0;
  if (trace == nullptr) {
    return static_cast<std::int64_t>(m) * (last - first + 1);
  }
  return trace->capacity_sum(first, last, m);
}

/// One fault model instantiation, carried by SimOptions.  Cheap to copy;
/// the kTrace trace is borrowed and must outlive the run.
struct FaultSpec {
  FaultModel model = FaultModel::kNone;
  /// Stream seed for the stochastic models.
  std::uint64_t seed = 1;
  /// Model intensity in [0, 0.9]: per-processor failure probability
  /// (kRandomBlip) or per-window outage probability (kBurstOutage).
  double rate = 0.25;
  /// Outage window length in slots (kBurstOutage; >= 1).
  Time burst_len = 16;
  /// Capacity during an outage window or adversarial dip (clamped to
  /// [0, m] at query time).
  int floor = 0;
  /// Borrowed explicit trace (kTrace only).
  const BudgetTrace* trace = nullptr;

  bool active() const { return model != FaultModel::kNone; }
};

/// Renders a spec as the CLI's `model:seed:rate` shorthand (manifests).
std::string ToString(const FaultSpec& spec);

/// Parses the CLI shorthand `model[:seed[:rate]]`, e.g.
/// `random-blip:7:0.3`.  kTrace cannot be spelled this way (the CLI
/// attaches parsed traces itself).  On failure returns nullopt and
/// writes a diagnostic to `error`.
std::optional<FaultSpec> ParseFaultSpec(std::string_view text,
                                        std::string* error);

/// Validates a spec's parameters (rate range, burst length, trace
/// presence); aborts with a message naming the bad field.  Engines call
/// this once per run so a bad spec fails loudly, not silently.
void ValidateFaultSpec(const FaultSpec& spec);

/// The per-run capacity source: one instance per engine run, queried once
/// per visited slot after arrivals are delivered.  `alive_count` feeds
/// kAdversarialDip's peak detector and is ignored by every other model.
class BudgetSequencer {
 public:
  BudgetSequencer(const FaultSpec& spec, int m);

  /// Capacity for `slot`, already clamped into [0, m] (see
  /// ClampSlotCapacity in sim/ready_state.h).
  int capacity(Time slot, std::int64_t alive_count);

  bool active() const { return spec_.active(); }

 private:
  FaultSpec spec_;
  int m_ = 1;
  std::int64_t peak_alive_ = 0;  // kAdversarialDip running maximum
};

/// Materializes the first `horizon` slots of a spec's capacity stream as
/// an explicit BudgetTrace (only non-full slots are pinned) — the
/// `otsched faults emit` backend and a convenient way to freeze a
/// stochastic model into a reproducible artifact.  kAdversarialDip has no
/// trace form (it depends on the run) and aborts here.
BudgetTrace MaterializeBudgetTrace(const FaultSpec& spec, int m,
                                   Time horizon);

}  // namespace otsched
