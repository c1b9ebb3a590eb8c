// Tests for sim/validator.h: each Section 3 axiom is enforced, in every
// schedule form that reaches the one checker.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/oracles.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "sim/trace.h"
#include "sim/validator.h"

namespace otsched {
namespace {

Instance OneChain(Time release = 0) {
  Instance instance;
  instance.add_job(Job(MakeChain(2), release));
  return instance;
}

TEST(Validator, AcceptsValidSchedule) {
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 1});
  EXPECT_TRUE(ValidateSchedule(schedule, instance));
}

TEST(Validator, Axiom1Capacity) {
  Instance instance;
  instance.add_job(Job(MakeParallelBlob(3), 0));
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(1, {0, 1});
  schedule.place(1, {0, 2});
  const auto report = ValidateSchedule(schedule, instance);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.violation.find("axiom (1)"), std::string::npos);
}

TEST(Validator, Axiom2MissingSubjob) {
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 0});
  const auto report = ValidateSchedule(schedule, instance);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.violation.find("never scheduled"), std::string::npos);
}

TEST(Validator, Axiom2DuplicateSubjob) {
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 0});
  schedule.place(3, {0, 1});
  const auto report = ValidateSchedule(schedule, instance);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.violation.find("axiom (2)"), std::string::npos);
}

TEST(Validator, Axiom3PrecedenceSameSlot) {
  const Instance instance = OneChain();
  Schedule schedule(2);
  schedule.place(1, {0, 0});
  schedule.place(1, {0, 1});  // child in the SAME slot as its parent
  const auto report = ValidateSchedule(schedule, instance);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.violation.find("axiom (3)"), std::string::npos);
}

TEST(Validator, Axiom3PrecedenceReversed) {
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 1});
  schedule.place(2, {0, 0});
  EXPECT_FALSE(ValidateSchedule(schedule, instance).feasible);
}

TEST(Validator, Axiom4Release) {
  const Instance instance = OneChain(/*release=*/5);
  Schedule schedule(1);
  schedule.place(5, {0, 0});  // slot 5 is NOT after release 5
  schedule.place(6, {0, 1});
  const auto report = ValidateSchedule(schedule, instance);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.violation.find("axiom (4)"), std::string::npos);

  Schedule ok(1);
  ok.place(6, {0, 0});
  ok.place(7, {0, 1});
  EXPECT_TRUE(ValidateSchedule(ok, instance));
}

TEST(Validator, UnknownJobAndNode) {
  const Instance instance = OneChain();
  Schedule bad_job(1);
  bad_job.place(1, {7, 0});
  EXPECT_FALSE(ValidateSchedule(bad_job, instance).feasible);

  Schedule bad_node(1);
  bad_node.place(1, {0, 9});
  EXPECT_FALSE(ValidateSchedule(bad_node, instance).feasible);
}

TEST(Validator, RolledBackWorkMayRunAgain) {
  // Node 1 runs at slot 2, is rolled back, and runs again at slot 3.
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 1});
  schedule.place(3, {0, 1});
  EXPECT_TRUE(ValidateSchedule(schedule, instance, /*wasted=*/1));
  // Without the rollback the rerun is a second execution.
  const auto twice = ValidateSchedule(schedule, instance);
  EXPECT_NE(twice.violation.find("axiom (2)"), std::string::npos);
  // Placements must add up to total work + wasted.
  const auto unreconciled = ValidateSchedule(schedule, instance, 2);
  EXPECT_NE(unreconciled.violation.find("axiom (2)"), std::string::npos);
  EXPECT_NE(unreconciled.violation.find("wasted 2"), std::string::npos);
}

TEST(Validator, PrecedenceAppliesToLastRuns) {
  // The parent re-runs after its child's last run: the final executions
  // violate precedence even though the first ones did not.
  const Instance instance = OneChain();
  Schedule schedule(1);
  schedule.place(1, {0, 0});
  schedule.place(2, {0, 1});
  schedule.place(3, {0, 0});
  const auto report = ValidateSchedule(schedule, instance, /*wasted=*/1);
  EXPECT_NE(report.violation.find("axiom (3)"), std::string::npos);
}

// ---- one checker, four schedule forms ----
//
// An engine Schedule, a single-job packing, a job-fault rollback trace and
// a Most-Children replay log all reach ValidateSchedule, so the same
// defect gets the same axiom tag in every form.  The job is a root 0 with
// children 1, 2, 3 on two processors; a defect is written once as a
// list of slots and turned into each form.

using Slots = std::vector<std::vector<NodeId>>;
constexpr int kP = 2;

Dag Star() { return MakeStar(3); }

// The slots of job 0 on kP processors, starting at slot `first`.
Schedule AsSchedule(const Slots& slots, Time first = 1) {
  Schedule schedule(kP);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (NodeId v : slots[s]) {
      schedule.place(first + static_cast<Time>(s), {0, v});
    }
  }
  return schedule;
}

// The job released at `release`, its slots starting at `first`.
std::string EngineForm(const Slots& slots, Time release, Time first) {
  Instance instance;
  instance.add_job(Job(Star(), release));
  return ValidateSchedule(AsSchedule(slots, first), instance).violation;
}

std::string TraceForm(const Slots& slots, Time release, Time first) {
  Instance instance;
  instance.add_job(Job(Star(), release));
  EventTrace trace;
  const Time last = first + static_cast<Time>(slots.size()) - 1;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (NodeId v : slots[s]) {
      trace.add({.kind = SlotEvent::Kind::kExecute,
                 .job = 0,
                 .node = v,
                 .slot = first + static_cast<Time>(s)});
    }
  }
  trace.add({.kind = SlotEvent::Kind::kComplete, .job = 0, .slot = last});
  return CheckCommittedFeasibilityOracle(trace, instance, kP, SimStats{})
      .detail;
}

std::string SingleJobForm(const Slots& slots) {
  return ValidateSingleJob(AsSchedule(slots), Star()).violation;
}

// S-slot 1 is the pre-executed prefix; every later slot is an MC step
// with a full budget.
std::string McLogForm(const Slots& slots) {
  McReplayLog log;
  log.prefix_len = 1;
  for (std::size_t s = 1; s < slots.size(); ++s) {
    log.steps.push_back({kP, slots[s]});
  }
  return CheckMcBusyOracle(Star(), AsSchedule(slots), log).detail;
}

struct Defect {
  const char* name;
  Slots slots;
  const char* tag;
};

TEST(ValidatorForms, EveryFormReportsTheSameAxiom) {
  const Slots good = {{0}, {1, 2}, {3}};
  EXPECT_EQ(EngineForm(good, 1, 2), "");
  EXPECT_EQ(TraceForm(good, 1, 2), "");
  EXPECT_EQ(SingleJobForm(good), "");
  EXPECT_EQ(McLogForm(good), "");

  const std::vector<Defect> defects = {
      {"over capacity", {{0}, {1, 2, 3}}, "axiom (1)"},
      {"run twice", {{0}, {1, 2}, {3, 1}}, "axiom (2)"},
      {"child before parent", {{1}, {0, 2}, {3}}, "axiom (3)"},
      {"never run", {{0}, {1, 2}}, "axiom (2)"},
  };
  for (const Defect& defect : defects) {
    for (const auto& [form, verdict] :
         std::vector<std::pair<const char*, std::string>>{
             {"engine", EngineForm(defect.slots, 1, 2)},
             {"trace", TraceForm(defect.slots, 1, 2)},
             {"single-job", SingleJobForm(defect.slots)},
             {"mc-log", McLogForm(defect.slots)}}) {
      EXPECT_NE(verdict.find(defect.tag), std::string::npos)
          << defect.name << " in the " << form << " form: " << verdict;
    }
  }
  // Run at release: only the multi-job forms carry a release.  The
  // single-job forms are released at 0 with 1-based slots, so no slot of
  // theirs can sit at or before the release.
  EXPECT_NE(EngineForm(good, 1, 1).find("axiom (4)"), std::string::npos);
  EXPECT_NE(TraceForm(good, 1, 1).find("axiom (4)"), std::string::npos);
}

TEST(Validator, EmptyScheduleOfEmptyInstance) {
  EXPECT_TRUE(ValidateSchedule(Schedule(1), Instance()));
}

}  // namespace
}  // namespace otsched
