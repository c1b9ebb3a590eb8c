// Tests for the observability layer: the SlotEvent stream contract
// (sim/observer.h), the standard sinks (sim/observers.h), the metrics
// registry (common/metrics.h), and the instrumented batch runner.
#include "gtest_compat.h"

#include <algorithm>

#include "advsim/adaptive.h"
#include "analysis/ratio.h"
#include "analysis/sweep.h"
#include "common/metrics.h"
#include "dag/builders.h"
#include "gen/arrivals.h"
#include "gen/random_trees.h"
#include "sched/fifo.h"
#include "sched/registry.h"
#include "sim/batch_runner.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/trace.h"
#include "same_run.h"
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

/// Position of each record kind in the documented per-slot order
/// (sim/observer.h): arrivals, capacity change, rollbacks, the pick
/// block, checkpoints, completes.
int SlotPhase(SlotEvent::Kind kind) {
  switch (kind) {
    case SlotEvent::Kind::kSlotBegin:
      return 0;
    case SlotEvent::Kind::kArrival:
      return 1;
    case SlotEvent::Kind::kCapacityChange:
      return 2;
    case SlotEvent::Kind::kRollback:
      return 3;
    case SlotEvent::Kind::kPickBegin:
      return 4;
    case SlotEvent::Kind::kExecute:
      return 5;
    case SlotEvent::Kind::kCheckpoint:
      return 6;
    case SlotEvent::Kind::kComplete:
      return 7;
  }
  return -1;
}

/// Every visited slot opens with kSlotBegin, slots advance strictly,
/// phases never go backwards within a slot, and each slot has exactly
/// one kPickBegin directly followed by its `value` kExecute records.
void ExpectDocumentedSlotOrder(const std::vector<SlotEvent>& stream) {
  ASSERT_FALSE(stream.empty());
  ASSERT_EQ(stream.front().kind, SlotEvent::Kind::kSlotBegin);
  Time slot = 0;
  int phase = 0;
  int picks = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const SlotEvent& event = stream[i];
    if (event.kind == SlotEvent::Kind::kSlotBegin) {
      if (i > 0) {
        EXPECT_EQ(picks, 1) << "slot " << slot;
      }
      EXPECT_GT(event.slot, slot) << "slots must advance strictly";
      slot = event.slot;
      phase = 0;
      picks = 0;
      continue;
    }
    EXPECT_EQ(event.slot, slot) << "record " << i;
    const int event_phase = SlotPhase(event.kind);
    EXPECT_GE(event_phase, phase)
        << "record " << i << " (kind " << static_cast<int>(event.kind)
        << ") out of order at slot " << slot;
    phase = event_phase;
    if (event.kind == SlotEvent::Kind::kPickBegin) {
      ++picks;
      for (int k = 1; k <= event.value; ++k) {
        ASSERT_LT(i + static_cast<std::size_t>(k), stream.size());
        EXPECT_EQ(stream[i + static_cast<std::size_t>(k)].kind,
                  SlotEvent::Kind::kExecute)
            << "pick block at slot " << slot;
      }
    }
  }
  EXPECT_EQ(picks, 1) << "slot " << slot;
}

TEST(ObserverHooks, FireInTheDocumentedOrder) {
  const Instance instance = MixedInstance(2024, 8);
  FifoScheduler fifo;
  SlotEventRecorder recorder;
  const SimResult result =
      Simulate(instance, 3, fifo, RunContext{SimOptions{}, &recorder});

  // Exactly one begin (first) and one finish (last).
  EXPECT_EQ(recorder.run_begins(), 1);
  EXPECT_EQ(recorder.finishes(), 1);
  const std::vector<SlotEvent> stream = recorder.stream();
  ExpectDocumentedSlotOrder(stream);

  // Arrival slots honour the release+1 convention; every job arrives and
  // completes exactly once.
  std::vector<int> arrived(static_cast<std::size_t>(instance.job_count()), 0);
  std::vector<int> completed(static_cast<std::size_t>(instance.job_count()),
                             0);
  for (const SlotEvent& event : stream) {
    const std::size_t job = static_cast<std::size_t>(event.job);
    if (event.kind == SlotEvent::Kind::kArrival) {
      ++arrived[job];
      EXPECT_EQ(event.slot, instance.job(event.job).release() + 1);
    }
    if (event.kind == SlotEvent::Kind::kComplete) {
      ++completed[job];
      EXPECT_EQ(event.slot, result.flows.completion[job]);
    }
  }
  for (JobId id = 0; id < instance.job_count(); ++id) {
    EXPECT_EQ(arrived[static_cast<std::size_t>(id)], 1) << "job " << id;
    EXPECT_EQ(completed[static_cast<std::size_t>(id)], 1) << "job " << id;
  }
}

TEST(ObserverHooks, JobFaultRecordsSitAtTheirDocumentedPositions) {
  // Processor and job faults together, so rollbacks share slots with
  // capacity changes and checkpoints share slots with completes.
  const Instance instance = MixedInstance(31, 8);
  SimOptions options = FlowOnlyOptions();
  options.faults.model = FaultModel::kRandomBlip;
  options.faults.seed = 4;
  options.faults.rate = 0.4;
  options.job_faults.model = JobFaultModel::kRandomCrash;
  options.job_faults.seed = 8;
  options.job_faults.rate = 0.2;
  options.job_faults.checkpoint = CheckpointPolicy::kEveryKSlots;
  options.job_faults.checkpoint_every = 2;
  FifoScheduler fifo;
  SlotEventRecorder recorder;
  const SimResult result =
      Simulate(instance, 3, fifo, RunContext{options, &recorder});
  ASSERT_TRUE(result.flows.all_completed);
  ASSERT_GT(result.stats.job_rollbacks, 0);

  const std::vector<SlotEvent> stream = recorder.stream();
  // kRollback after kCapacityChange and before kPickBegin; kCheckpoint
  // after the executes and before kComplete.
  ExpectDocumentedSlotOrder(stream);

  EXPECT_EQ(std::count_if(stream.begin(), stream.end(),
                          [](const SlotEvent& event) {
                            return event.kind == SlotEvent::Kind::kRollback;
                          }),
            result.stats.job_rollbacks);

  // The shared-slot positions the order check relies on actually occur.
  const auto bit = [](SlotEvent::Kind kind) {
    return 1u << static_cast<unsigned>(kind);
  };
  unsigned slot_kinds = 0;  // kinds seen so far in the current slot
  int rollback_after_capacity_change = 0;
  int checkpoint_before_complete = 0;
  for (const SlotEvent& event : stream) {
    if (event.kind == SlotEvent::Kind::kSlotBegin) slot_kinds = 0;
    slot_kinds |= bit(event.kind);
    if (event.kind == SlotEvent::Kind::kRollback &&
        (slot_kinds & bit(SlotEvent::Kind::kCapacityChange)) != 0) {
      ++rollback_after_capacity_change;
    }
    if (event.kind == SlotEvent::Kind::kComplete &&
        (slot_kinds & bit(SlotEvent::Kind::kCheckpoint)) != 0) {
      ++checkpoint_before_complete;
    }
  }
  EXPECT_GT(rollback_after_capacity_change, 0);
  EXPECT_GT(checkpoint_before_complete, 0);
}

TEST(ObserverHooks, StreamingTraceMatchesDeriveTraceForAllPolicies) {
  const Instance instance = MixedInstance(77, 6);
  for (const PolicySpec& spec : AllPolicies()) {
    for (int m : {2, 4}) {
      if (SkipCase(spec, instance, m, /*known_opt=*/0)) continue;
      auto scheduler = spec.make(5);
      EventTrace streamed;
      StreamingTraceObserver tracer(streamed);
      RunContext context;
      context.observer = &tracer;
      const SimResult result = Simulate(instance, m, *scheduler, context);
      EXPECT_EQ(FirstDivergence(streamed,
                                DeriveTrace(result.full_schedule(), instance)),
                -1)
          << spec.name << " m=" << m;
    }
  }
}

TEST(ObserverHooks, AdaptiveEngineStreamsTheSameTrace) {
  AdaptiveAdversaryOptions options;
  options.m = 3;
  options.num_jobs = 5;
  FifoScheduler fifo;
  EventTrace streamed;
  StreamingTraceObserver tracer(streamed);
  SlotEventRecorder recorder;
  ObserverList observers;
  observers.add(&tracer);
  observers.add(&recorder);
  RunContext context;
  context.observer = &observers;
  const AdaptiveAdversaryResult result =
      RunAdaptiveAdversary(fifo, options, context);
  // The adversary materializes the instance it played; the streamed trace
  // must agree with the canonical derivation over that instance.
  EXPECT_EQ(
      FirstDivergence(streamed, DeriveTrace(result.full_schedule(), result.instance)),
      -1);
  EXPECT_EQ(recorder.run_begins(), 1);
  EXPECT_EQ(recorder.finishes(), 1);
  ExpectDocumentedSlotOrder(recorder.stream());
}

TEST(ObserverList, FansOutInOrderAndSkipsNull) {
  std::vector<int> order;
  class Tag final : public RunObserver {
   public:
    Tag(std::vector<int>& order, int id) : order_(order), id_(id) {}
    void on_slot_batch(const EngineBackend&,
                       std::span<const SlotEvent>) override {
      order_.push_back(id_);
    }
    bool wants_pick_timing() const override { return false; }

   private:
    std::vector<int>& order_;
    int id_;
  };
  Tag first(order, 1);
  Tag second(order, 2);
  ObserverList list;
  EXPECT_TRUE(list.empty());
  list.add(nullptr);
  EXPECT_TRUE(list.empty());
  list.add(&first);
  list.add(&second);
  EXPECT_FALSE(list.empty());
  EXPECT_FALSE(list.wants_pick_timing());  // no member wants it
  EventTrace trace;
  StreamingTraceObserver tracer(trace);
  ObserverList tracer_only;
  tracer_only.add(&tracer);
  EXPECT_FALSE(tracer_only.wants_pick_timing());  // a trace has no pick time

  Instance instance;
  instance.add_job(Job(MakeChain(3), 0));
  FifoScheduler fifo;
  Simulate(instance, 1, fifo, RunContext{SimOptions{}, &list});
  // Every batch reaches both members, first then second.
  ASSERT_FALSE(order.empty());
  ASSERT_EQ(order.size() % 2, 0u);
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 1);
    EXPECT_EQ(order[i + 1], 2);
  }
}

// ---- metrics registry ----

TEST(MetricsRegistry, CountersGaugesHistogramsSeries) {
  MetricsRegistry registry;
  registry.counter("c").inc();
  registry.counter("c").inc(4);
  EXPECT_EQ(registry.counter("c").value(), 5);

  Gauge& g = registry.gauge("g");
  g.set(2.0);
  g.set(8.0);
  g.set(5.0);
  EXPECT_EQ(g.last(), 5.0);
  EXPECT_EQ(g.min(), 2.0);
  EXPECT_EQ(g.max(), 8.0);
  EXPECT_EQ(g.mean(), 5.0);
  EXPECT_EQ(g.count(), 3);

  Histogram& h = registry.histogram("h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);  // overflow bucket
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(h.count(), 3);

  Series& s = registry.series("s");
  s.record(1, 10);
  s.record(4, 20);
  EXPECT_EQ(s.slots(), (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(s.values(), (std::vector<std::int64_t>{10, 20}));
}

TEST(MetricsRegistry, MergeSumsCountersPoolsGaugesAndAlignsSeries) {
  MetricsRegistry a;
  a.counter("n").set(3);
  a.gauge("g").set(1.0);
  a.histogram("h", {2.0}).observe(1.0);
  a.series("s").record(1, 5);
  a.series("s").record(2, 5);

  MetricsRegistry b;
  b.counter("n").set(4);
  b.gauge("g").set(9.0);
  b.histogram("h", {2.0}).observe(3.0);
  b.series("s").record(2, 7);
  b.series("s").record(3, 7);

  a.merge_from(b);
  EXPECT_EQ(a.counter("n").value(), 7);
  EXPECT_EQ(a.gauge("g").min(), 1.0);
  EXPECT_EQ(a.gauge("g").max(), 9.0);
  EXPECT_EQ(a.gauge("g").count(), 2);
  EXPECT_EQ(a.histogram("h", {}).count(), 2);
  EXPECT_EQ(a.series("s").slots(), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(a.series("s").values(), (std::vector<std::int64_t>{5, 12, 7}));
}

TEST(MetricsRegistryDeath, CrossKindNameCollisionAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_DEATH(registry.gauge("x"), "another kind");
  MetricsRegistry bounds;
  bounds.histogram("h", {1.0, 2.0});
  EXPECT_DEATH(bounds.histogram("h", {1.0, 3.0}), "different");
}

TEST(MetricsRegistry, JsonIsDeterministicAndSchemaShaped) {
  auto build = [] {
    MetricsRegistry registry;
    registry.set_manifest("policy", std::string("fifo"));
    registry.set_manifest("m", std::int64_t{4});
    registry.counter("runs").inc(2);
    registry.gauge("width").set(3.5);
    registry.histogram("flow", {1.0, 2.0}).observe(1.5);
    registry.series("busy").record(1, 4);
    return registry.to_json();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());
  for (const char* needle :
       {"\"schema_version\": 1", "\"manifest\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"series\"", "\"runs\": 2", "\"policy\": \"fifo\"",
        "\"le\": [1, 2]", "\"slots\": [1]"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsRegistry, ToJsonCachedServesCachedBytesUntilTouched) {
  // The /metrics regression: an idle daemon polls to_json_cached() over
  // and over; only mutations (the generation counter) may trigger a
  // re-render.
  MetricsRegistry registry;
  registry.set_manifest("policy", std::string("fifo"));
  registry.counter("jobs").inc(3);

  const std::string first = registry.to_json_cached();  // copy: the
  // cached buffer itself is reused across re-renders.
  EXPECT_EQ(registry.json_renders(), 1);
  EXPECT_EQ(first, registry.to_json());

  // Idle polls: same bytes, no further renders.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(registry.to_json_cached(), first);
    EXPECT_EQ(registry.json_renders(), 1) << "poll " << i;
  }

  // Any mutation through the registry accessors bumps the generation and
  // the next poll re-renders exactly once.
  registry.counter("jobs").inc();
  EXPECT_EQ(registry.json_renders(), 1);  // lazily re-rendered, not eagerly
  const std::string after = registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 2);
  EXPECT_NE(after, first);
  EXPECT_NE(after.find("\"jobs\": 4"), std::string::npos);
  registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 2);

  // set_manifest and the other accessor kinds dirty the cache too.
  registry.set_manifest("m", std::int64_t{8});
  registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 3);
  registry.gauge("width");
  registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 4);

  // Handle-writers bypass the registry, so tick code that mutates
  // through a kept handle must call touch() — the documented contract.
  Counter& handle = registry.counter("jobs");  // accessor: dirties
  registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 5);
  handle.inc();             // invisible to the generation counter...
  registry.touch();         // ...until touch()
  registry.to_json_cached();
  EXPECT_EQ(registry.json_renders(), 6);
}

// ---- MetricsObserver golden run ----

TEST(MetricsObserver, TinyRunMatchesHandComputedRegistry) {
  // Two single-node jobs released at 0 and 1 on one processor: every
  // metric is computable by hand, so the full JSON document is a golden
  // artifact built from first principles rather than a checked-in blob.
  Instance instance;
  instance.add_job(Job(MakeChain(1), 0));
  instance.add_job(Job(MakeChain(1), 1));
  FifoScheduler fifo;

  MetricsRegistry got;
  MetricsObserver::Options options;
  options.record_pick_times = false;  // the one nondeterministic metric
  MetricsObserver observer(got, options);
  RunContext context;
  context.observer = &observer;
  const SimResult result = Simulate(instance, 1, fifo, context);
  ASSERT_EQ(result.stats.horizon, 2);
  ASSERT_EQ(result.flows.max_flow, 1);

  MetricsRegistry want;
  want.counter("observer.arrivals").set(2);
  want.counter("observer.completions").set(2);
  want.counter("observer.executes").set(2);
  want.counter("observer.picks").set(2);
  want.counter("observer.slots_visited").set(2);
  want.counter("engine.busy_slots").set(2);
  want.counter("engine.executed_subjobs").set(2);
  want.counter("engine.idle_processor_slots").set(0);
  want.counter("flow.total_slots").set(2);
  // Fault-free run: the fault counters exist but stay at zero.
  want.counter("faults.capacity_changes").set(0);
  want.counter("faults.faulted_slots").set(0);
  want.counter("faults.capacity_shortfall").set(0);
  // Job faults off: the rollback/checkpoint counters exist but stay zero.
  want.counter("faults.rollbacks").set(0);
  want.counter("faults.checkpoints").set(0);
  want.counter("work.wasted_slots").set(0);
  want.gauge("engine.horizon").set(2.0);
  want.gauge("flow.max").set(1.0);
  want.gauge("alive.width").set(1.0);
  want.gauge("alive.width").set(1.0);
  want.gauge("ready.width").set(1.0);
  want.gauge("ready.width").set(1.0);
  want.gauge("utilization.mean").set(1.0);
  std::vector<double> flow_bounds;
  for (int p = 0; p <= 20; ++p) {
    flow_bounds.push_back(static_cast<double>(std::int64_t{1} << p));
  }
  Histogram& flow_hist = want.histogram("flow.slots", flow_bounds);
  flow_hist.observe(1.0);
  flow_hist.observe(1.0);
  want.series("slot.busy").record(1, 1);
  want.series("slot.busy").record(2, 1);
  want.series("slot.idle").record(1, 0);
  want.series("slot.idle").record(2, 0);
  want.series("slot.ready_width").record(1, 1);
  want.series("slot.ready_width").record(2, 1);
  want.series("slot.alive").record(1, 1);
  want.series("slot.alive").record(2, 1);
  want.series("slot.capacity");  // declared but empty: capacity never changed
  want.series("work.committed_frontier");  // empty: job faults off

  EXPECT_EQ(got.to_json(), want.to_json());
}

TEST(MetricsObserver, FiguresMatchSimStatsAndFlowSummary) {
  const Instance instance = MixedInstance(11, 7);
  FifoScheduler fifo;
  MetricsRegistry registry;
  MetricsObserver observer(registry);
  RunContext context;
  context.observer = &observer;
  const SimResult result = Simulate(instance, 3, fifo, context);

  EXPECT_EQ(registry.counter("engine.idle_processor_slots").value(),
            result.stats.idle_processor_slots);
  EXPECT_EQ(registry.counter("engine.busy_slots").value(),
            result.stats.busy_slots);
  EXPECT_EQ(registry.counter("engine.executed_subjobs").value(),
            result.stats.executed_subjobs);
  EXPECT_EQ(registry.gauge("engine.horizon").last(),
            static_cast<double>(result.stats.horizon));
  EXPECT_EQ(registry.gauge("flow.max").last(),
            static_cast<double>(result.flows.max_flow));
  // Streamed counters cross-check the authoritative figures.
  EXPECT_EQ(registry.counter("observer.executes").value(),
            result.stats.executed_subjobs);
  EXPECT_EQ(registry.counter("observer.slots_visited").value(),
            result.stats.busy_slots);
  Time total_flow = 0;
  for (Time f : result.flows.flow) total_flow += f;
  EXPECT_EQ(registry.counter("flow.total_slots").value(), total_flow);
  EXPECT_EQ(registry.histogram("flow.slots", {}).count(),
            instance.job_count());
  // Pick timing is on by default and saw one observation per visited slot.
  EXPECT_EQ(registry.histogram("pick.seconds", {}).count(),
            registry.counter("observer.picks").value());
}

TEST(MetricsObserver, AdaptiveRunCountsFaultedSlots) {
  // The adaptive engine's on_finish stats carry the capacity-fault
  // figures: faults.faulted_slots / capacity_shortfall must equal what
  // the recorded stream shows (visited slots whose current capacity is
  // below m).
  AdaptiveAdversaryOptions options;
  options.m = 4;
  options.num_jobs = 6;
  RunContext context;
  context.options.faults.model = FaultModel::kRandomBlip;
  context.options.faults.seed = 3;
  context.options.faults.rate = 0.4;
  MetricsRegistry registry;
  MetricsObserver::Options metric_options;
  metric_options.record_pick_times = false;
  MetricsObserver metrics(registry, metric_options);
  SlotEventRecorder recorder;
  ObserverList observers;
  observers.add(&metrics);
  observers.add(&recorder);
  context.observer = &observers;
  FifoScheduler fifo;
  RunAdaptiveAdversary(fifo, options, context);

  std::int64_t faulted_slots = 0;
  std::int64_t shortfall = 0;
  int capacity = options.m;
  for (const SlotEvent& event : recorder.stream()) {
    if (event.kind == SlotEvent::Kind::kCapacityChange) {
      capacity = event.value;
    }
    // One kPickBegin per visited slot, after any capacity change.
    if (event.kind == SlotEvent::Kind::kPickBegin && capacity < options.m) {
      ++faulted_slots;
      shortfall += options.m - capacity;
    }
  }
  EXPECT_GT(faulted_slots, 0);
  EXPECT_EQ(registry.counter("faults.faulted_slots").value(), faulted_slots);
  EXPECT_EQ(registry.counter("faults.capacity_shortfall").value(), shortfall);
}

// ---- manifest ----

TEST(RunManifest, FingerprintIsStableAndSensitive) {
  const Instance a = MixedInstance(5, 4);
  const Instance b = MixedInstance(6, 4);
  EXPECT_EQ(FingerprintInstance(a), FingerprintInstance(a));
  EXPECT_NE(FingerprintInstance(a), FingerprintInstance(b));
}

TEST(RunManifest, CarriesRunProvenance) {
  const Instance instance = MixedInstance(5, 4);
  SimOptions options;
  options.max_horizon = 500;
  options.clairvoyance = ClairvoyanceOverride::kDeny;
  const RunManifest manifest =
      MakeRunManifest(instance, 4, "fifo/first-ready", 99, options);
  EXPECT_EQ(manifest.jobs, instance.job_count());
  EXPECT_EQ(manifest.total_work, instance.total_work());
  EXPECT_EQ(manifest.m, 4);
  EXPECT_EQ(manifest.seed, 99u);
  EXPECT_EQ(manifest.max_horizon, 500);
  EXPECT_EQ(manifest.clairvoyance, "deny");
  EXPECT_EQ(manifest.instance_hash.size(), 16u);

  const std::string json = manifest.to_json();
  for (const char* needle :
       {"\"policy\": \"fifo/first-ready\"", "\"m\": 4", "\"seed\": 99",
        "\"clairvoyance\": \"deny\"", manifest.instance_hash.c_str()}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  MetricsRegistry registry;
  WriteManifest(registry, manifest);
  const std::string metrics_json = registry.to_json();
  EXPECT_NE(metrics_json.find("\"instance_hash\""), std::string::npos);
  EXPECT_NE(metrics_json.find(manifest.instance_hash), std::string::npos);
}

// ---- instrumented batches ----

TEST(BatchRunner, InstrumentedAggregateIsWorkerCountInvariant) {
  const Instance instance = MixedInstance(321, 6);
  std::vector<std::pair<const Instance*, int>> cells;
  for (int m : {2, 3}) {
    for (int s = 0; s < 3; ++s) cells.emplace_back(&instance, m);
  }
  MetricsObserver::Options options;
  options.record_pick_times = false;
  auto run_with_workers = [&](std::size_t workers) {
    const BatchRunner runner(workers);
    const auto registries =
        runner.Map<MetricsRegistry>(cells.size(), [&](std::size_t i) {
          const auto& [cell_instance, m] = cells[i];
          const auto policy =
              MakePolicy("fifo/random", static_cast<std::uint64_t>(i % 3), 0);
          MetricsRegistry registry;
          MetricsObserver observer(registry, options);
          RunContext context;
          context.observer = &observer;
          Simulate(*cell_instance, m, *policy, context);
          return registry;
        });
    return MergedMetrics(registries).to_json();
  };
  const std::string inline_run = run_with_workers(0);
  EXPECT_EQ(inline_run, run_with_workers(1));
  EXPECT_EQ(inline_run, run_with_workers(3));
}

TEST(MeasureRatio, RunContextOverloadFiresObservers) {
  const Instance instance = MixedInstance(9, 5);
  FifoScheduler fifo;
  MetricsRegistry registry;
  MetricsObserver observer(registry);
  RunContext context;
  context.observer = &observer;
  const RatioMeasurement r = MeasureRatio(instance, 2, fifo, 0, context);
  EXPECT_EQ(registry.counter("engine.idle_processor_slots").value(),
            r.sim_stats.idle_processor_slots);
  EXPECT_EQ(registry.gauge("flow.max").last(),
            static_cast<double>(r.max_flow));
}

}  // namespace
}  // namespace otsched
