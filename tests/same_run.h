// The equivalence gates' one case filter and one result comparison: a
// (policy, instance, m) case runs unless the registry's gate refuses it,
// and two runs of the same case must agree on the schedule (slot by slot,
// in placement order, when both recorded one), the flow summary and every
// SimStats counter.
#pragma once

#include <string>

#include "gtest_compat.h"
#include "sched/registry.h"
#include "sim/engine.h"

namespace otsched {

/// Whether the gates skip `spec` on (instance, m): the registry's
/// PolicyError refuses it, or it plans with a known optimum and the
/// corpus has no certified one (`known_opt` 0).
inline bool SkipCase(const PolicySpec& spec, const Instance& instance, int m,
                     Time known_opt) {
  return (spec.needs_known_opt && known_opt == 0) ||
         !PolicyError(spec, instance, m, known_opt).empty();
}

inline void ExpectSameRun(const SimResult& got, const SimResult& want,
                          const std::string& label) {
  if (got.has_schedule() && want.has_schedule()) {
    const Schedule& a = got.full_schedule();
    const Schedule& b = want.full_schedule();
    ASSERT_EQ(a.horizon(), b.horizon()) << label;
    ASSERT_EQ(a.total_placed(), b.total_placed()) << label;
    for (Time t = 1; t <= b.horizon(); ++t) {
      const auto got_slot = a.at(t);
      const auto want_slot = b.at(t);
      ASSERT_EQ(got_slot.size(), want_slot.size())
          << label << " at slot " << t;
      for (std::size_t i = 0; i < want_slot.size(); ++i) {
        EXPECT_EQ(got_slot[i], want_slot[i])
            << label << " at slot " << t << " index " << i;
      }
    }
  }
  EXPECT_EQ(got.flows.completion, want.flows.completion) << label;
  EXPECT_EQ(got.flows.flow, want.flows.flow) << label;
  EXPECT_EQ(got.flows.max_flow, want.flows.max_flow) << label;
  EXPECT_EQ(got.flows.max_flow_job, want.flows.max_flow_job) << label;
  EXPECT_EQ(got.flows.all_completed, want.flows.all_completed) << label;
  EXPECT_EQ(got.stats.horizon, want.stats.horizon) << label;
  EXPECT_EQ(got.stats.executed_subjobs, want.stats.executed_subjobs) << label;
  EXPECT_EQ(got.stats.idle_processor_slots, want.stats.idle_processor_slots)
      << label;
  EXPECT_EQ(got.stats.busy_slots, want.stats.busy_slots) << label;
  EXPECT_EQ(got.stats.faulted_slots, want.stats.faulted_slots) << label;
  EXPECT_EQ(got.stats.capacity_shortfall, want.stats.capacity_shortfall)
      << label;
  EXPECT_EQ(got.stats.job_rollbacks, want.stats.job_rollbacks) << label;
  EXPECT_EQ(got.stats.wasted_subjob_slots, want.stats.wasted_subjob_slots)
      << label;
  EXPECT_EQ(got.stats.checkpoints, want.stats.checkpoints) << label;
}

}  // namespace otsched
