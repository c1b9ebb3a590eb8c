#include "sim/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/parse.h"

namespace otsched {

void EventTrace::add(TraceEvent event) {
  events_.push_back(event);
}

std::vector<TraceEvent> EventTrace::of_kind(TraceEventKind kind) const {
  std::vector<TraceEvent> result;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) result.push_back(event);
  }
  return result;
}

std::string EventTrace::to_text() const {
  std::ostringstream out;
  for (const TraceEvent& event : events_) {
    out << event.slot << ' ';
    switch (event.kind) {
      case TraceEventKind::kArrival:
        out << "arrive " << event.job;
        break;
      case TraceEventKind::kExecute:
        out << "exec " << event.job << ' ' << event.node;
        break;
      case TraceEventKind::kComplete:
        out << "done " << event.job;
        break;
    }
    out << '\n';
  }
  return out.str();
}

namespace {

bool IsBlank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

std::optional<EventTrace> EventTrace::try_from_text(const std::string& text,
                                                    std::string* error) {
  EventTrace trace;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& what) -> std::optional<EventTrace> {
    if (error != nullptr) {
      *error = "trace line " + std::to_string(line_number) + ": " + what;
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (IsBlank(line)) continue;
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    std::string token;
    while (fields >> token) tokens.push_back(token);

    TraceEvent event;
    if (tokens.size() < 2) return fail("malformed (needs <slot> <kind> ...)");
    if (!ParseNonNegative(tokens[0], &event.slot) || event.slot < 1) {
      return fail("malformed slot '" + tokens[0] + "' (want integer >= 1)");
    }
    const std::string& kind = tokens[1];
    std::size_t expected = 0;
    if (kind == "arrive") {
      event.kind = TraceEventKind::kArrival;
      expected = 3;
    } else if (kind == "exec") {
      event.kind = TraceEventKind::kExecute;
      expected = 4;
    } else if (kind == "done") {
      event.kind = TraceEventKind::kComplete;
      expected = 3;
    } else {
      return fail("bad kind '" + kind + "' (want arrive|exec|done)");
    }
    if (tokens.size() < expected) {
      return fail("malformed " + kind + " event (missing " +
                  (expected == 4 && tokens.size() == 3 ? "node" : "job") +
                  ")");
    }
    if (tokens.size() > expected) {
      return fail("trailing token '" + tokens[expected] + "'");
    }
    if (!ParseNonNegative(tokens[2], &event.job)) {
      return fail("malformed job id '" + tokens[2] + "'");
    }
    if (expected == 4 && !ParseNonNegative(tokens[3], &event.node)) {
      return fail("malformed node id '" + tokens[3] + "'");
    }
    trace.add(event);
  }
  return trace;
}

EventTrace EventTrace::from_text(const std::string& text) {
  std::string error;
  std::optional<EventTrace> trace = try_from_text(text, &error);
  OTSCHED_CHECK(trace.has_value(), error);
  return *std::move(trace);
}

std::optional<EventTrace> EventTrace::try_from_file(const std::string& path,
                                                    std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = path + ": cannot open trace file";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) *error = path + ": read error";
    return std::nullopt;
  }
  std::string parse_error;
  std::optional<EventTrace> trace = try_from_text(buffer.str(), &parse_error);
  if (!trace.has_value() && error != nullptr) {
    *error = path + ": " + parse_error;
  }
  return trace;
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
      trace.add(TraceEvent{t, TraceEventKind::kArrival,
                           arrivals[next_arrival], kInvalidNode});
      ++next_arrival;
    }
    for (const SubjobRef& ref : schedule.at(t)) {
      trace.add(TraceEvent{t, TraceEventKind::kExecute, ref.job, ref.node});
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
      trace.add(TraceEvent{t, TraceEventKind::kComplete, id, kInvalidNode});
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
