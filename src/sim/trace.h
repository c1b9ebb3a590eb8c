// Event traces: a linear record of everything that happened in a run.
//
// Where a Schedule answers "what ran when", a trace also captures
// arrivals and completions in order, which is what debugging a policy or
// diffing two runs needs.  A trace holds the engine's own SlotEvent
// records (sim/observer.h) of three kinds — kArrival, kExecute and
// kComplete — and is write-only: it serializes to a line format stable
// enough for golden tests, and nothing parses that format back.
#pragma once

#include <string>
#include <vector>

#include "job/instance.h"
#include "sim/observer.h"
#include "sim/schedule.h"

namespace otsched {

class EventTrace {
 public:
  /// The SlotEvent kinds a trace carries: kArrival, kExecute, kComplete.
  static bool keeps(SlotEvent::Kind kind) {
    return kind == SlotEvent::Kind::kArrival ||
           kind == SlotEvent::Kind::kExecute ||
           kind == SlotEvent::Kind::kComplete;
  }

  /// Appends one record; aborts unless keeps(event.kind).
  void add(const SlotEvent& event);

  const std::vector<SlotEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// One line per event: "<slot> arrive|exec|done <job> [<node>]".
  std::string to_text() const;

  /// Writes to_text() to `path`.  Returns false (with a diagnostic in
  /// `error`) on I/O failure.
  bool to_file(const std::string& path, std::string* error = nullptr) const;

  friend bool operator==(const EventTrace&, const EventTrace&) = default;

 private:
  std::vector<SlotEvent> events_;
};

/// Derives the canonical trace of a finished schedule against its
/// instance: arrivals in (release, id) order at release+1, executions in
/// slot order (within a slot, in schedule placement order), completions
/// when a job's last subjob runs.  The records are the ones the engine
/// emits (value, width and seconds are 0), so two runs are behaviourally
/// identical iff their derived traces are equal.
EventTrace DeriveTrace(const Schedule& schedule, const Instance& instance);

/// First index where the traces differ, or -1 if equal (for diagnostics).
std::int64_t FirstDivergence(const EventTrace& a, const EventTrace& b);

}  // namespace otsched
