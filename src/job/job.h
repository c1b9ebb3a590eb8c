// A Job is a DAG of unit-time subjobs plus a release time (Section 3).
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "dag/dag.h"
#include "dag/metrics.h"

namespace otsched {

class Job {
 public:
  Job() = default;
  Job(Dag dag, Time release, std::string name = "");

  const Dag& dag() const { return shared_->dag; }
  Time release() const { return release_; }
  const std::string& name() const { return name_; }

  /// A copy released at `release`, sharing this job's DAG and metrics.
  Job released_at(Time release) const {
    Job copy = *this;
    copy.release_ = release;
    return copy;
  }

  /// Lazily-computed metrics (work, span, heights, depths, W(d)); cached
  /// because many schedulers/analyses consult the same job repeatedly.
  /// Thread-safe: concurrent first calls on copies of one Job compute the
  /// metrics once.
  const DagMetrics& metrics() const;

  std::int64_t work() const { return dag().node_count(); }
  std::int64_t span() const { return metrics().span; }

 private:
  // One block shared by every copy, so Instances copy cheaply into sweep
  // workers.  The Dag is immutable; the metrics are filled exactly once,
  // under `metrics_once`, by whichever copy asks first.
  struct Shared {
    Shared() = default;
    explicit Shared(Dag d) : dag(std::move(d)) {}
    Dag dag;
    std::once_flag metrics_once;
    DagMetrics metrics;
  };
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
  Time release_ = 0;
  std::string name_;
};

}  // namespace otsched
