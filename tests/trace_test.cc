// Tests for sim/trace.h.
#include "gtest_compat.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dag/builders.h"
#include "sched/fifo.h"
#include "sched/list_greedy.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace otsched {
namespace {

Instance SmallInstance() {
  Instance instance;
  instance.add_job(Job(MakeChain(2), 0));
  instance.add_job(Job(MakeStar(2), 1));
  return instance;
}

TEST(Trace, DeriveOrdersEventsCanonically) {
  const Instance instance = SmallInstance();
  FifoScheduler fifo;
  const SimResult result = Simulate(instance, 2, fifo);
  const EventTrace trace = DeriveTrace(result.full_schedule(), instance);

  ASSERT_FALSE(trace.empty());
  // First event: job 0 arrives at slot 1.
  EXPECT_EQ(trace.events()[0].kind, SlotEvent::Kind::kArrival);
  EXPECT_EQ(trace.events()[0].job, 0);
  EXPECT_EQ(trace.events()[0].slot, 1);
  // Arrivals: 2, executions: 5, completions: 2.
  const auto count = [&](SlotEvent::Kind kind) {
    return std::count_if(
        trace.events().begin(), trace.events().end(),
        [kind](const SlotEvent& event) { return event.kind == kind; });
  };
  EXPECT_EQ(count(SlotEvent::Kind::kArrival), 2);
  EXPECT_EQ(count(SlotEvent::Kind::kExecute), 5);
  EXPECT_EQ(count(SlotEvent::Kind::kComplete), 2);
  // Slots are nondecreasing.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].slot, trace.events()[i].slot);
  }
}

TEST(Trace, IdenticalRunsDeriveIdenticalTraces) {
  const Instance instance = SmallInstance();
  FifoScheduler a;
  FifoScheduler b;
  const EventTrace ta =
      DeriveTrace(Simulate(instance, 2, a).full_schedule(), instance);
  const EventTrace tb =
      DeriveTrace(Simulate(instance, 2, b).full_schedule(), instance);
  EXPECT_EQ(ta, tb);
}

TEST(Trace, DivergenceIsLocalized) {
  const Instance instance = SmallInstance();
  FifoScheduler fifo;
  ListGreedyScheduler greedy(123);
  const EventTrace ta =
      DeriveTrace(Simulate(instance, 1, fifo).full_schedule(), instance);
  const EventTrace tb =
      DeriveTrace(Simulate(instance, 1, greedy).full_schedule(), instance);
  const std::int64_t d = FirstDivergence(ta, tb);
  if (d >= 0) {
    // Everything before the divergence matches by definition.
    for (std::int64_t i = 0; i < d; ++i) {
      EXPECT_EQ(ta.events()[static_cast<std::size_t>(i)],
                tb.events()[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Trace, GoldenSmallFifoRun) {
  // Chain(2) at 0 and Star(2) at 1 under FIFO on m=2 — the canonical
  // trace, pinned.  Chain: nodes at slots 1, 2.  Star root at slot 2,
  // leaves at 3.
  const Instance instance = SmallInstance();
  FifoScheduler fifo;
  const SimResult result = Simulate(instance, 2, fifo);
  const EventTrace trace = DeriveTrace(result.full_schedule(), instance);
  EXPECT_EQ(trace.to_text(),
            "1 arrive 0\n"
            "1 exec 0 0\n"
            "2 arrive 1\n"
            "2 exec 0 1\n"
            "2 exec 1 0\n"
            "2 done 0\n"
            "3 exec 1 1\n"
            "3 exec 1 2\n"
            "3 done 1\n");
}

// ---- the file writer ----

namespace {

/// A unique scratch path under the test temp dir; removed on scope exit.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadBack(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

}  // namespace

TEST(TraceFile, ToFileRoundTripsThroughTryFromFile) {
  EventTrace trace;
  trace.add({.kind = SlotEvent::Kind::kArrival, .job = 0, .slot = 1});
  trace.add(
      {.kind = SlotEvent::Kind::kExecute, .job = 0, .node = 3, .slot = 1});
  trace.add({.kind = SlotEvent::Kind::kComplete, .job = 0, .slot = 2});

  // The file holds exactly the text form, byte for byte.
  ScratchFile file("trace_roundtrip.trace");
  std::string error;
  ASSERT_TRUE(trace.to_file(file.path(), &error)) << error;
  const std::string bytes = ReadBack(file.path());
  EXPECT_EQ(bytes, trace.to_text());
  EXPECT_EQ(bytes,
            "1 arrive 0\n"
            "1 exec 0 3\n"
            "2 done 0\n");
}

TEST(TraceFile, EmptyTraceRoundTripsToEmptyFile) {
  ScratchFile file("trace_empty.trace");
  std::string error;
  ASSERT_TRUE(EventTrace().to_file(file.path(), &error)) << error;
  EXPECT_EQ(ReadBack(file.path()), "");
}

TEST(TraceFile, UnwritableDestinationReportsFailure) {
  EventTrace trace;
  trace.add({.kind = SlotEvent::Kind::kArrival, .job = 0, .slot = 1});
  std::string error;
  EXPECT_FALSE(trace.to_file("/nonexistent/dir/out.trace", &error));
  EXPECT_NE(error.find("/nonexistent/dir/out.trace"), std::string::npos)
      << error;
}

TEST(TraceFile, StreamedRunTraceSurvivesTheFileRoundTrip) {
  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  instance.add_job(Job(MakeParallelBlob(4), 1));
  FifoScheduler fifo;
  const SimResult run = Simulate(instance, 2, fifo);
  const EventTrace derived = DeriveTrace(run.full_schedule(), instance);

  ScratchFile file("trace_run.trace");
  std::string error;
  ASSERT_TRUE(derived.to_file(file.path(), &error)) << error;
  EXPECT_EQ(ReadBack(file.path()), derived.to_text());
}

TEST(TraceDeath, AddRejectsKindsATraceDoesNotCarry) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EventTrace trace;
  EXPECT_DEATH(trace.add({.kind = SlotEvent::Kind::kPickBegin, .slot = 1}),
               "arrive/exec/done records only");
}

}  // namespace
}  // namespace otsched
