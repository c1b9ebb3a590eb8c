#include "sim/engine.h"

#include "common/assert.h"
#include "sim/driver.h"

namespace otsched {

// --- SchedulerView cold-path forwarding (hot accessors are inline in
// engine.h; these either gate clairvoyance or are off the pick path) ---

JobId SchedulerView::job_count() const { return backend_.job_count(); }
bool SchedulerView::arrived(JobId id) const { return backend_.arrived(id); }
bool SchedulerView::executed(JobId id, NodeId v) const {
  return backend_.executed(id, v);
}
const Dag& SchedulerView::dag(JobId id) const { return backend_.dag(id); }
const DagMetrics& SchedulerView::metrics(JobId id) const {
  return backend_.metrics(id);
}
bool SchedulerView::clairvoyant_allowed() const {
  return backend_.clairvoyant_allowed();
}

std::string RunSupportError(const Scheduler& scheduler,
                            const SimOptions& options) {
  if (options.faults.active() && !scheduler.supports_fluctuating_capacity()) {
    return "policy '" + scheduler.name() +
           "' does not support fluctuating capacity (fault model " +
           ToString(options.faults.model) +
           "): its window plans assume a fixed m";
  }
  if (!options.job_faults.active()) return "";
  const std::string model = ToString(options.job_faults.model);
  if (options.record != RecordMode::kFlowOnly) {
    return "job faults (model " + model +
           ") require --record flow (RecordMode::kFlowOnly): re-executed "
           "subjobs cannot be materialized in a schedule";
  }
  if (!scheduler.supports_fluctuating_capacity() ||
      !scheduler.supports_job_rollback()) {
    return "policy '" + scheduler.name() +
           "' does not support job faults (model " + model +
           "): it carries window plans or queued subjobs across slots, "
           "which a rollback invalidates";
  }
  return "";
}

const Schedule& SimResult::full_schedule() const {
  OTSCHED_CHECK(schedule.has_value(),
                "full_schedule() on a flow-only run (RecordMode::kFlowOnly "
                "records no Schedule; rerun with RecordMode::kFull)");
  return *schedule;
}

/// Batch runs are the tick engine driven to completion: Simulate submits
/// every job and drains, so a batch run and a stream enter the driver
/// the same way — the bit-identity the driver-equivalence suite then
/// re-proves slot by slot for advance(1) stepping.  The engine internals
/// live in sim/driver.{h,cc}.
SimResult Simulate(const Instance& instance, int m, Scheduler& scheduler,
                   const RunContext& context) {
  SimDriver driver(m, scheduler, context);
  driver.submit_all(instance);
  return driver.drain();
}

}  // namespace otsched
