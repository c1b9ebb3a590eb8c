// Tests for the batched SlotEvent delivery contract (sim/observer.h):
// the ring-buffer flush discipline (pre-execution, end of slot,
// buffer-full) must hold down to a capacity of one record, and the
// kPickBegin record must carry the per-slot alive/ready-width figures.
#include "gtest_compat.h"

#include <string>
#include <vector>

#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "sched/fifo.h"
#include "sim/engine.h"
#include "slot_event_recorder.h"

namespace otsched {
namespace {

Instance MixedInstance(std::uint64_t seed, int jobs) {
  Rng rng(seed);
  return MakePoissonArrivals(
      jobs, 0.25,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4),
                        static_cast<NodeId>(6 + r.next_below(18)), r);
      },
      rng);
}

using EngineFn = SimResult (*)(const Instance&, int, Scheduler&,
                               const RunContext&);

// ---- flush discipline ----

TEST(BatchDelivery, FlushBoundariesHoldDownToCapacityOne) {
  const Instance instance = MixedInstance(88, 6);
  const struct {
    const char* name;
    EngineFn run;
  } engines[] = {{"Simulate", &Simulate},
                 {"ReferenceSimulate", &ReferenceSimulate}};
  for (const auto& engine : engines) {
    // The reference stream: one engine pass at the default capacity.
    FifoScheduler baseline_fifo;
    SlotEventRecorder baseline;
    RunContext baseline_context{FlowOnlyOptions(), &baseline};
    engine.run(instance, 3, baseline_fifo, baseline_context);
    const std::vector<SlotEvent> want = baseline.stream();
    ASSERT_FALSE(want.empty()) << engine.name;

    for (std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{5},
                                 std::size_t{8}}) {
      FifoScheduler fifo;
      SlotEventRecorder recorder;
      RunContext context{FlowOnlyOptions(), &recorder, capacity};
      engine.run(instance, 3, fifo, context);
      const std::string label =
          std::string(engine.name) + " capacity=" + std::to_string(capacity);

      for (const auto& batch : recorder.batches()) {
        ASSERT_FALSE(batch.empty()) << label << ": empty flush";
        // Batches never span slots.
        for (const SlotEvent& event : batch) {
          EXPECT_EQ(event.slot, batch.front().slot) << label;
        }
        // A pick block (kPickBegin + its kExecute records) is never
        // split: the `value` executes follow their kPickBegin in the
        // SAME batch, contiguously, even when the block alone exceeds
        // the ring capacity (m=3 > capacity=1).
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].kind != SlotEvent::Kind::kPickBegin) continue;
          const auto picked = static_cast<std::size_t>(batch[i].value);
          ASSERT_LE(i + picked, batch.size()) << label << ": split block";
          for (std::size_t k = 1; k <= picked; ++k) {
            EXPECT_EQ(batch[i + k].kind, SlotEvent::Kind::kExecute)
                << label;
            EXPECT_EQ(batch[i + k].slot, batch[i].slot) << label;
          }
        }
        // Oversized batches happen only to keep a block contiguous.
        if (batch.size() > capacity) {
          EXPECT_EQ(batch.front().kind, SlotEvent::Kind::kPickBegin)
              << label << ": oversized batch without a pick block";
        }
      }

      // The capacity changes WHERE the stream is cut, never WHAT it
      // carries: the concatenation is identical to the default-capacity
      // stream record for record.
      const std::vector<SlotEvent> got = recorder.stream();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(SameEvent(got[i], want[i])) << label << " event " << i;
      }
    }
  }
}

TEST(BatchDelivery, PickBeginCarriesAliveAndReadyWidth) {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeStar(4), 0));
  FifoScheduler fifo;
  SlotEventRecorder recorder;
  RunContext context{SimOptions{}, &recorder};
  const SimResult result = Simulate(instance, 2, fifo, context);

  std::int64_t executes = 0;
  std::int64_t slots = 0;
  for (const SlotEvent& event : recorder.stream()) {
    switch (event.kind) {
      case SlotEvent::Kind::kSlotBegin:
        ++slots;
        break;
      case SlotEvent::Kind::kPickBegin:
        // job = alive count, width = total ready width, value = picks.
        EXPECT_GE(event.job, 1);
        EXPECT_LE(event.job, instance.job_count());
        EXPECT_GE(event.width, event.value);
        EXPECT_EQ(event.seconds, 0.0);  // recorder opted out of timing
        break;
      case SlotEvent::Kind::kExecute:
        ++executes;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(executes, result.stats.executed_subjobs);
  EXPECT_EQ(slots, result.stats.busy_slots);
}

}  // namespace
}  // namespace otsched
