// Running a scheduler on an instance and measuring its competitive ratio.
//
// The denominator policy is conservative: a certified OPT when the
// generator provides one, otherwise the best implemented lower bound — so
// reported ratios are upper bounds on the flattering interpretation and
// lower bounds on nothing.
#pragma once

#include <optional>
#include <string>

#include "analysis/flow_stats.h"
#include "opt/lower_bounds.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/validator.h"

namespace otsched {

struct RatioMeasurement {
  std::string scheduler;
  int m = 0;
  Time max_flow = 0;
  Time opt_denominator = 0;
  /// True when opt_denominator is a certified exact OPT, false when it is
  /// only a lower bound (ratio then conservative / possibly overstated
  /// against true OPT — never understated).
  bool denominator_exact = false;
  double ratio = 0.0;
  FlowStats flow_stats;
  SimStats sim_stats;
  /// The measured run's schedule, already re-validated end to end:
  /// present iff the run recorded RecordMode::kFull.  Renderers and
  /// time-series derivations read it instead of simulating again.
  std::optional<Schedule> schedule;

  // ---- certified lower bound (filled by AttachCertificate) ----

  /// Machine-checked OPT lower bound from opt/flow_network (0 until
  /// AttachCertificate runs).  Unlike opt_denominator's heuristic
  /// fallback, this value is backed by a verified certificate, so
  /// ratio_vs_certificate is a sound upper bound on the true competitive
  /// ratio for this run on any instance — not just out-forests.
  Time certified_bound = 0;
  /// Certificate construction ("max-flow"; "trivial" on empty instances).
  std::string certificate_method;
  /// Whether the certificate passed Certificate::verify() in-process
  /// (AttachCertificate aborts otherwise, so a reported measurement
  /// always carries true here or 0 in certified_bound).
  bool certificate_verified = false;
  /// max_flow / certified_bound (0.0 until AttachCertificate runs).
  double ratio_vs_certificate = 0.0;
};

/// Runs `scheduler` on `instance` with m processors and divides the
/// achieved maximum flow by `certified_opt` (> 0) or, if certified_opt
/// == 0, by the computed lower bound.  `context` is the one run surface
/// (bare SimOptions convert implicitly — the old SimOptions overload was
/// folded away); `context.observer`'s hooks fire during the measured run.
///
/// The measurement only consumes aggregates, so flow-only runs
/// (RecordMode::kFlowOnly, e.g. via FlowOnlyOptions()) are the preferred
/// mode for sweeps; full-mode runs additionally re-validate the produced
/// schedule end to end with ScheduleValidator and hand it back in
/// RatioMeasurement::schedule.
RatioMeasurement MeasureRatio(const Instance& instance, int m,
                              Scheduler& scheduler, Time certified_opt = 0,
                              const RunContext& context = {});

/// Computes the certified max-flow lower bound for the measured
/// (instance, m) cell — under the same fluctuating budget the run used,
/// if any — verifies it in-process, and fills the certificate fields of
/// `measurement`.  Aborts if verification fails or if the measured flow
/// beats the certified bound: either convicts the certificate or the
/// flow accounting, and a measurement must not be reported over a broken
/// denominator.  Pass the run's BudgetTrace (nullptr = healthy machine);
/// mixing a healthy run with a faulted certificate (or vice versa) makes
/// the comparison meaningless.
void AttachCertificate(RatioMeasurement& measurement,
                       const Instance& instance,
                       const BudgetTrace* budget = nullptr);

}  // namespace otsched
