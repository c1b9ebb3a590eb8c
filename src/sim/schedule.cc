#include "sim/schedule.h"

#include <algorithm>

#include "common/assert.h"

namespace otsched {

Schedule::Schedule(int m) : m_(m) {
  OTSCHED_CHECK(m >= 1, "need at least one processor");
  offsets_.push_back(0);
}

void Schedule::place(Time slot, SubjobRef ref) {
  OTSCHED_CHECK(slot >= 1, "slots are 1-based, got " << slot);
  OTSCHED_CHECK(slot >= horizon_, "schedules are append-only: slot "
                                      << slot << " is before the horizon "
                                      << horizon_);
  if (slot > horizon_) {
    offsets_.resize(static_cast<std::size_t>(slot) + 1,
                    static_cast<std::int64_t>(entries_.size()));
    horizon_ = slot;
  }
  entries_.push_back(ref);
  offsets_.back() = static_cast<std::int64_t>(entries_.size());
  ++total_placed_;
}

std::span<const SubjobRef> Schedule::at(Time slot) const {
  if (slot < 1 || slot > horizon_) return {};
  const std::int64_t begin = offsets_[static_cast<std::size_t>(slot) - 1];
  const std::int64_t end = offsets_[static_cast<std::size_t>(slot)];
  return {entries_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::int64_t Schedule::idle_processor_slots() const {
  std::int64_t processor_slots = 0;
  OTSCHED_CHECK(!__builtin_mul_overflow(static_cast<std::int64_t>(m_),
                                        horizon_, &processor_slots),
                "m * horizon = " << m_ << " * " << horizon_
                                 << " processor-slots overflow int64");
  return processor_slots - total_placed_;
}

std::vector<Time> Schedule::idle_slots(Time from, Time to) const {
  std::vector<Time> result;
  from = std::max<Time>(from, 1);
  to = std::min<Time>(to, horizon());
  for (Time t = from; t <= to; ++t) {
    if (load(t) < m_) result.push_back(t);
  }
  return result;
}

FlowSummary SummarizeFlows(std::span<const Time> release,
                           std::vector<Time> completion) {
  const std::size_t n = completion.size();
  OTSCHED_CHECK(release.size() == n, "flows of " << n << " jobs with "
                                                << release.size()
                                                << " releases");
  FlowSummary summary;
  summary.flow.resize(n, kInfiniteTime);
  for (std::size_t i = 0; i < n; ++i) {
    if (completion[i] != kNoTime) {
      summary.flow[i] = completion[i] - release[i];
    } else {
      summary.all_completed = false;
    }
    if (summary.max_flow_job == kInvalidJob ||
        summary.flow[i] > summary.max_flow) {
      summary.max_flow = summary.flow[i];
      summary.max_flow_job = static_cast<JobId>(i);
    }
  }
  summary.completion = std::move(completion);
  return summary;
}

void FlowAccumulator::init(const Instance& instance) {
  const std::size_t n = static_cast<std::size_t>(instance.job_count());
  work_.resize(n);
  release_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& job = instance.job(static_cast<JobId>(i));
    work_[i] = job.work();
    release_[i] = job.release();
  }
  placed_.assign(n, 0);
  last_slot_.assign(n, kNoTime);
}

FlowSummary FlowAccumulator::finish() const {
  std::vector<Time> completion(work_.size(), kNoTime);
  for (std::size_t i = 0; i < completion.size(); ++i) {
    if (placed_[i] == work_[i]) completion[i] = last_slot_[i];
  }
  return SummarizeFlows(release_, std::move(completion));
}

FlowSummary ComputeFlows(const Schedule& schedule, const Instance& instance) {
  FlowAccumulator accumulator(instance);
  for (Time t = 1; t <= schedule.horizon(); ++t) {
    for (const SubjobRef& ref : schedule.at(t)) {
      // Engines validate picks before recording; an arbitrary Schedule
      // (hand-built in tests) has not been validated, so guard here.
      OTSCHED_CHECK(ref.job >= 0 && ref.job < instance.job_count(),
                    "schedule references unknown job " << ref.job);
      accumulator.record(t, ref.job);
    }
  }
  return accumulator.finish();
}

}  // namespace otsched
