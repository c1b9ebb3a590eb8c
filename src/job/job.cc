#include "job/job.h"

#include "common/assert.h"

namespace otsched {

Job::Job(Dag dag, Time release, std::string name)
    : shared_(std::make_shared<Shared>(std::move(dag))),
      release_(release),
      name_(std::move(name)) {
  OTSCHED_CHECK(release >= 0, "release times are nonnegative (Section 3)");
}

const DagMetrics& Job::metrics() const {
  std::call_once(shared_->metrics_once,
                 [this] { shared_->metrics = ComputeMetrics(shared_->dag); });
  return shared_->metrics;
}

}  // namespace otsched
