#include "advsim/adaptive.h"

#include "common/assert.h"
#include "sim/driver.h"
#include "sim/validator.h"

namespace otsched {

const Schedule& AdaptiveAdversaryResult::full_schedule() const {
  OTSCHED_CHECK(schedule.has_value(),
                "full_schedule() on a flow-only adversary run (rerun with "
                "RecordMode::kFull)");
  return *schedule;
}

AdaptiveAdversaryResult RunAdaptiveAdversary(
    Scheduler& scheduler, const AdaptiveAdversaryOptions& options,
    const RunContext& context) {
  OTSCHED_CHECK(!scheduler.requires_clairvoyance(),
                "the adaptive adversary only plays non-clairvoyant "
                "schedulers; '"
                    << scheduler.name() << "' declares clairvoyance");
  OTSCHED_CHECK(!context.options.job_faults.active(),
                "the adaptive adversary does not model job faults: a "
                "rollback past a crowned key would have to hide its layer "
                "again");
  const int m = options.m;
  const int layers = options.layers_per_job > 0 ? options.layers_per_job : m;
  const NodeId width = m + 1;
  const Time gap = options.gap > 0 ? options.gap : m + 2;
  const JobId num_jobs = static_cast<JobId>(options.num_jobs);
  OTSCHED_CHECK(m >= 2);
  OTSCHED_CHECK(num_jobs >= 1);
  OTSCHED_CHECK(layers >= 1);

  // Every job has its final size up front: L layers of m+1 subjobs, no
  // edges, all but layer 0 held.  Only the keys are chosen late, so one
  // shared Dag serves every job (copies of `shape` share its block).
  const Job shape(Dag::Builder(static_cast<NodeId>(layers) * width).build(),
                  0);
  RunContext driven = context;
  driven.options.clairvoyance = ClairvoyanceOverride::kDeny;
  SimDriver driver(m, scheduler, driven);

  AdaptiveAdversaryResult result;
  result.certified_opt_upper = gap;
  result.keys.resize(static_cast<std::size_t>(num_jobs));
  JobId next = 0;
  const auto submit_next = [&] {
    driver.submit(shape.released_at(next * gap), width);
    ++next;
  };
  while (true) {
    // Submit each job at its release; when nothing is alive, submit the
    // next one early and let the driver fast-forward to its arrival.
    while (next < num_jobs && next * gap <= driver.now()) submit_next();
    if (driver.idle()) {
      if (next == num_jobs) break;
      submit_next();
    }
    driver.advance(1);
    // A layer ran dry: the subjob that emptied it is the one the
    // scheduler finished last, so it becomes the key, and the layer it
    // gates becomes ready from the next slot.
    for (const SubjobRef& ref : driver.exhausted()) {
      std::vector<NodeId>& keys =
          result.keys[static_cast<std::size_t>(ref.job)];
      keys.push_back(ref.node);
      driver.reveal(ref.job, static_cast<NodeId>(keys.size()) * width,
                    width);
    }
    for (const SimDriver::FinishedJob& done : driver.take_finished()) {
      result.keys[static_cast<std::size_t>(done.job)].push_back(done.last);
    }
    driver.retire_finished();
  }
  SimResult run = driver.drain();
  result.schedule = std::move(run.schedule);
  result.flows = std::move(run.flows);
  result.max_flow = result.flows.max_flow;

  // Materialize the instance with the chosen keys wired in.
  for (JobId j = 0; j < num_jobs; ++j) {
    const std::vector<NodeId>& keys = result.keys[static_cast<std::size_t>(j)];
    Dag::Builder builder(static_cast<NodeId>(layers) * width);
    for (int layer = 0; layer + 1 < layers; ++layer) {
      const NodeId next_base = static_cast<NodeId>(layer + 1) * width;
      for (NodeId v = next_base; v < next_base + width; ++v) {
        builder.add_edge(keys[static_cast<std::size_t>(layer)], v);
      }
    }
    result.instance.add_job(Job(std::move(builder).build(), j * gap,
                                "adaptive-" + std::to_string(j)));
  }
  result.instance.set_name("adaptive-adversary-m" + std::to_string(m));

  if (result.schedule.has_value()) {
    // The produced schedule must be a feasible schedule of the
    // materialized instance — the consistency proof of the adversary.
    // Flow-only runs skip it along with the schedule; the driver still
    // validated every pick against the ready sets it showed.
    const ValidationReport report =
        ValidateSchedule(*result.schedule, result.instance);
    OTSCHED_CHECK(report.feasible,
                  "adaptive adversary inconsistency: " << report.violation);
  }
  return result;
}

}  // namespace otsched
