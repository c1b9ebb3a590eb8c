// The one SlotEvent test recorder: copies every delivered batch verbatim
// and notes on_run_begin/on_finish, so tests can diff whole event streams
// across engines and assert the per-slot record order (sim/observer.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gtest_compat.h"
#include "sim/engine.h"

namespace otsched {

/// Records batches as delivered and fails the test if one arrives
/// outside on_run_begin .. on_finish.  Opts out of pick timing, so every
/// kPickBegin it sees carries `seconds` == 0.
class SlotEventRecorder final : public RunObserver {
 public:
  void on_run_begin(const EngineBackend& engine) override {
    (void)engine;
    ++run_begins_;
  }
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override {
    (void)engine;
    EXPECT_EQ(run_begins_, 1) << "batch before on_run_begin";
    EXPECT_EQ(finishes_, 0) << "batch after on_finish";
    batches_.emplace_back(events.begin(), events.end());
  }
  void on_finish(const SimResult& result) override {
    (void)result;
    ++finishes_;
  }
  bool wants_pick_timing() const override { return false; }

  int run_begins() const { return run_begins_; }
  int finishes() const { return finishes_; }
  const std::vector<std::vector<SlotEvent>>& batches() const {
    return batches_;
  }
  /// Every record of the run, in stream order.
  std::vector<SlotEvent> stream() const {
    std::vector<SlotEvent> all;
    for (const auto& batch : batches_) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  }

 private:
  int run_begins_ = 0;
  int finishes_ = 0;
  std::vector<std::vector<SlotEvent>> batches_;
};

/// Record equality ignoring `seconds` (pick wall time is nondeterministic,
/// and 0 whenever no attached observer wants it).
inline bool SameEvent(const SlotEvent& a, const SlotEvent& b) {
  return a.kind == b.kind && a.job == b.job && a.node == b.node &&
         a.value == b.value && a.slot == b.slot && a.width == b.width;
}

/// Index of the first record where two streams differ (a length mismatch
/// counts at the shorter length), or -1 when they are identical.
inline long FirstEventDivergence(const std::vector<SlotEvent>& a,
                                 const std::vector<SlotEvent>& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!SameEvent(a[i], b[i])) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

}  // namespace otsched
