#include "analysis/ratio.h"

#include <utility>

#include "common/assert.h"
#include "opt/flow_network.h"

namespace otsched {

RatioMeasurement MeasureRatio(const Instance& instance, int m,
                              Scheduler& scheduler, Time certified_opt,
                              const RunContext& context) {
  RatioMeasurement result;
  result.scheduler = scheduler.name();
  result.m = m;

  SimResult sim = Simulate(instance, m, scheduler, context);
  if (sim.has_schedule()) {
    // Full-mode runs get the end-to-end re-validation; flow-only runs
    // have no schedule to re-check, but the engine already validated
    // every pick (readiness, capacity, duplicates) online.
    const ValidationReport report =
        ValidateSchedule(sim.full_schedule(), instance);
    OTSCHED_CHECK(report.feasible, "scheduler '" << scheduler.name()
                                                 << "' produced an infeasible "
                                                    "schedule: "
                                                 << report.violation);
  }
  OTSCHED_CHECK(sim.flows.all_completed);

  result.max_flow = sim.flows.max_flow;
  if (certified_opt > 0) {
    result.opt_denominator = certified_opt;
    result.denominator_exact = true;
  } else {
    result.opt_denominator = MaxFlowLowerBound(instance, m);
    result.denominator_exact = false;
  }
  OTSCHED_CHECK(result.opt_denominator > 0);
  if (result.denominator_exact) {
    OTSCHED_CHECK(result.max_flow >= result.opt_denominator,
                  "schedule beat certified OPT — certification bug ("
                      << result.max_flow << " < " << result.opt_denominator
                      << ")");
  }
  result.ratio = static_cast<double>(result.max_flow) /
                 static_cast<double>(result.opt_denominator);
  result.flow_stats = ComputeFlowStats(sim.flows);
  result.sim_stats = sim.stats;
  result.schedule = std::move(sim.schedule);
  return result;
}

void AttachCertificate(RatioMeasurement& measurement,
                       const Instance& instance, const BudgetTrace* budget) {
  const Certificate certificate =
      MaxFlowCertificate(instance, measurement.m, budget);
  std::string why;
  measurement.certificate_verified =
      certificate.verify(instance, budget, &why);
  OTSCHED_CHECK(measurement.certificate_verified,
                "certified bound failed its own verification: " << why);
  measurement.certified_bound = certificate.value;
  measurement.certificate_method = certificate.method;
  if (certificate.value > 0) {
    OTSCHED_CHECK(measurement.max_flow >= certificate.value,
                  "measured max flow " << measurement.max_flow
                                       << " beats the certified lower bound "
                                       << certificate.value << " on "
                                       << measurement.m
                                       << " processors — flow accounting or "
                                          "certificate is broken");
    measurement.ratio_vs_certificate =
        static_cast<double>(measurement.max_flow) /
        static_cast<double>(certificate.value);
  }
}

}  // namespace otsched
