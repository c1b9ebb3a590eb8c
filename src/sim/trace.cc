#include "sim/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/assert.h"

namespace otsched {

void EventTrace::add(const SlotEvent& event) {
  OTSCHED_CHECK(keeps(event.kind),
                "a trace carries arrive/exec/done records only, got kind "
                    << static_cast<int>(event.kind));
  events_.push_back(event);
}

std::string EventTrace::to_text() const {
  std::ostringstream out;
  for (const SlotEvent& event : events_) {
    out << event.slot << ' ';
    switch (event.kind) {
      case SlotEvent::Kind::kArrival:
        out << "arrive " << event.job;
        break;
      case SlotEvent::Kind::kExecute:
        out << "exec " << event.job << ' ' << event.node;
        break;
      case SlotEvent::Kind::kComplete:
        out << "done " << event.job;
        break;
      default:  // add() admits no other kind
        break;
    }
    out << '\n';
  }
  return out.str();
}

bool EventTrace::to_file(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    if (error != nullptr) *error = path + ": cannot open for writing";
    return false;
  }
  out << to_text();
  out.flush();
  if (!out.good()) {
    if (error != nullptr) *error = path + ": write error";
    return false;
  }
  return true;
}

EventTrace DeriveTrace(const Schedule& schedule, const Instance& instance) {
  EventTrace trace;
  // Arrivals ordered by (release, id); merged into the slot stream.
  std::vector<JobId> arrivals = instance.release_order();
  std::size_t next_arrival = 0;

  std::vector<std::int64_t> remaining(
      static_cast<std::size_t>(instance.job_count()));
  for (JobId id = 0; id < instance.job_count(); ++id) {
    remaining[static_cast<std::size_t>(id)] = instance.job(id).work();
  }

  for (Time t = 1; t <= schedule.horizon(); ++t) {
    while (next_arrival < arrivals.size() &&
           instance.job(arrivals[next_arrival]).release() < t) {
      trace.add({.kind = SlotEvent::Kind::kArrival,
                 .job = arrivals[next_arrival],
                 .slot = t});
      ++next_arrival;
    }
    for (const SubjobRef& ref : schedule.at(t)) {
      trace.add({.kind = SlotEvent::Kind::kExecute,
                 .job = ref.job,
                 .node = ref.node,
                 .slot = t});
    }
    // Completions after the slot's executions, in job order.
    std::vector<JobId> done_now;
    for (const SubjobRef& ref : schedule.at(t)) {
      auto& left = remaining[static_cast<std::size_t>(ref.job)];
      --left;
      if (left == 0) done_now.push_back(ref.job);
    }
    std::sort(done_now.begin(), done_now.end());
    for (JobId id : done_now) {
      trace.add({.kind = SlotEvent::Kind::kComplete, .job = id, .slot = t});
    }
  }
  return trace;
}

std::int64_t FirstDivergence(const EventTrace& a, const EventTrace& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a.events()[i] == b.events()[i])) {
      return static_cast<std::int64_t>(i);
    }
  }
  if (a.size() != b.size()) return static_cast<std::int64_t>(n);
  return -1;
}

}  // namespace otsched
