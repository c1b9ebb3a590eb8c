#include "sim/validator.h"

#include <sstream>
#include <vector>

#include "common/assert.h"

namespace otsched {

namespace {

ValidationReport Violation(int axiom, const std::string& detail) {
  ValidationReport report;
  report.feasible = false;
  std::ostringstream out;
  out << "axiom (" << axiom << ") violated: " << detail;
  report.violation = out.str();
  return report;
}

}  // namespace

ValidationReport ValidateSchedule(const Schedule& schedule,
                                  const Instance& instance,
                                  std::int64_t wasted) {
  // slot_of[job][node] = last slot the subjob ran at (kNoTime if never).
  std::vector<std::vector<Time>> slot_of(
      static_cast<std::size_t>(instance.job_count()));
  for (JobId id = 0; id < instance.job_count(); ++id) {
    slot_of[static_cast<std::size_t>(id)].assign(
        static_cast<std::size_t>(instance.job(id).dag().node_count()),
        kNoTime);
  }

  for (Time t = 1; t <= schedule.horizon(); ++t) {
    const auto slot = schedule.at(t);
    // Axiom (1): capacity.
    if (static_cast<int>(slot.size()) > schedule.m()) {
      std::ostringstream out;
      out << "slot " << t << " runs " << slot.size() << " subjobs on "
          << schedule.m() << " processors";
      return Violation(1, out.str());
    }
    for (const SubjobRef& ref : slot) {
      if (ref.job < 0 || ref.job >= instance.job_count()) {
        std::ostringstream out;
        out << "slot " << t << " references unknown job " << ref.job;
        return Violation(2, out.str());
      }
      const Job& job = instance.job(ref.job);
      if (ref.node < 0 || ref.node >= job.dag().node_count()) {
        std::ostringstream out;
        out << "slot " << t << " references unknown node " << ref.node
            << " of job " << ref.job;
        return Violation(2, out.str());
      }
      Time& recorded = slot_of[static_cast<std::size_t>(ref.job)]
                              [static_cast<std::size_t>(ref.node)];
      // Axiom (2): at most once, unless rolled-back work is re-run.
      if (recorded != kNoTime && wasted == 0) {
        std::ostringstream out;
        out << "job " << ref.job << " node " << ref.node
            << " scheduled at slots " << recorded << " and " << t;
        return Violation(2, out.str());
      }
      recorded = t;
      // Axiom (4): release.
      if (t <= job.release()) {
        std::ostringstream out;
        out << "job " << ref.job << " (release " << job.release()
            << ") has node " << ref.node << " at slot " << t;
        return Violation(4, out.str());
      }
    }
  }

  for (JobId id = 0; id < instance.job_count(); ++id) {
    const Job& job = instance.job(id);
    const auto& slots = slot_of[static_cast<std::size_t>(id)];
    for (NodeId v = 0; v < job.dag().node_count(); ++v) {
      const Time tv = slots[static_cast<std::size_t>(v)];
      // Axiom (2): at least once.
      if (tv == kNoTime) {
        std::ostringstream out;
        out << "job " << id << " node " << v << " never scheduled";
        return Violation(2, out.str());
      }
      // Axiom (3): precedence.  A child not yet checked may never have
      // run; the loop reports that as axiom (2) when it reaches it.
      for (NodeId c : job.dag().children(v)) {
        const Time tc = slots[static_cast<std::size_t>(c)];
        if (tc != kNoTime && tc <= tv) {
          std::ostringstream out;
          out << "job " << id << " edge (" << v << " -> " << c
              << ") scheduled at slots " << tv << " -> " << tc;
          return Violation(3, out.str());
        }
      }
    }
  }

  // Every rolled-back execution is re-run, and nothing else is.  With
  // wasted == 0 the checks above already force total work.
  const std::int64_t expected = instance.total_work() + wasted;
  if (schedule.total_placed() != expected) {
    std::ostringstream out;
    out << "schedule places " << schedule.total_placed()
        << " subjobs, expected total work " << instance.total_work()
        << " + wasted " << wasted;
    return Violation(2, out.str());
  }
  return ValidationReport{};
}

}  // namespace otsched
