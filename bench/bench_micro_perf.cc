// E11 — microbenchmarks of the simulation substrate (google-benchmark).
//
// Not a paper artifact per se; these numbers document why the Theorem 4.2
// sweep can reach m = 4096 (lbsim slot cost) and what the generic engine,
// LPF construction, MC replay, and metric computation cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "advsim/adaptive.h"
#include "analysis/section6.h"
#include "core/lpf.h"
#include "dag/builders.h"
#include "sim/trace.h"
#include "core/most_children.h"
#include "dag/metrics.h"
#include "gen/arrivals.h"
#include "gen/certified.h"
#include "gen/random_trees.h"
#include "job/serialize.h"
#include "lbsim/lbsim.h"
#include "opt/lower_bounds.h"
#include "sched/fifo.h"
#include "sim/engine.h"
#include "sim/job_faults.h"
#include "sim/observers.h"

namespace {

// Binary-wide heap instrumentation for the record-mode rows: every
// allocation routes through a header-tagged malloc so live/peak bytes are
// exact.  Counter reads happen only from untimed probe sections, so the
// relaxed atomics add one uncontended RMW per alloc to the timed loops —
// identical overhead for every row, so before/after deltas stay honest.
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

constexpr std::size_t kHeader = alignof(std::max_align_t);

void* TrackedAlloc(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = size;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live =
      g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                             std::memory_order_relaxed) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

// GCC flags the header-offset free as a new/delete mismatch when it
// inlines this into container destructors; the pairing is correct by
// construction (every tracked pointer came from TrackedAlloc).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#pragma GCC diagnostic ignored "-Warray-bounds"
void TrackedFree(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* raw = static_cast<char*>(ptr) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}
#pragma GCC diagnostic pop

}  // namespace

// Only the plain forms are replaced; the array, nothrow, and sized
// variants forward here by default.  Over-aligned allocations keep their
// default (untracked) operators, whose deallocation pairs match.
void* operator new(std::size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { TrackedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { TrackedFree(ptr); }

namespace otsched {
namespace {

/// Scoped heap meter: allocation count and peak-live delta since
/// construction.  Use around one untimed run; the counters land in
/// benchmark::State::counters.
class AllocProbe {
 public:
  AllocProbe()
      : base_count_(g_alloc_count.load(std::memory_order_relaxed)),
        base_live_(g_live_bytes.load(std::memory_order_relaxed)) {
    g_peak_bytes.store(base_live_, std::memory_order_relaxed);
  }

  double allocations() const {
    return static_cast<double>(
        g_alloc_count.load(std::memory_order_relaxed) - base_count_);
  }
  double peak_bytes() const {
    return static_cast<double>(
        g_peak_bytes.load(std::memory_order_relaxed) - base_live_);
  }

 private:
  std::int64_t base_count_;
  std::int64_t base_live_;
};

void BM_DagMetrics(benchmark::State& state) {
  Rng rng(1);
  const Dag tree =
      MakeAttachmentTree(static_cast<NodeId>(state.range(0)), 0.5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMetrics(tree));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DagMetrics)->Arg(1000)->Arg(100000);

void BM_LpfBuild(benchmark::State& state) {
  Rng rng(2);
  const Dag tree =
      MakeAttachmentTree(static_cast<NodeId>(state.range(0)), 0.5, rng);
  const DagMetrics metrics = ComputeMetrics(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildLpfSchedule(tree, metrics, 16));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LpfBuild)->Arg(54)->Arg(1000)->Arg(100000);

void BM_McReplay(benchmark::State& state) {
  Rng rng(3);
  const Dag tree =
      MakeAttachmentTree(static_cast<NodeId>(state.range(0)), 0.3, rng);
  const Schedule lpf = BuildLpfSchedule(tree, 16);
  for (auto _ : state) {
    MostChildrenReplayer mc(tree, lpf);
    while (!mc.done()) mc.step(16);
    benchmark::DoNotOptimize(mc.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_McReplay)->Arg(54)->Arg(1000)->Arg(20000);

void BM_EngineFifo(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(4);
  CertifiedInstance cert = MakeSpacedSaturatedInstance(m, 8, 6, rng);
  for (auto _ : state) {
    FifoScheduler fifo;
    benchmark::DoNotOptimize(Simulate(cert.instance, m, fifo));
  }
  state.SetItemsProcessed(state.iterations() * cert.instance.total_work());
}
BENCHMARK(BM_EngineFifo)->Arg(16)->Arg(128);

/// Large sparse workload for the incremental-vs-reference engine rows:
/// many alive chain jobs (large alive set, exactly one ready subjob per
/// alive job) over a long horizon.  Per-slot the reference engine pays
/// O(alive) for its alive-list sweep; the incremental engine pays O(m).
Instance MakeSparseChainInstance(int jobs, NodeId chain_len) {
  Instance instance;
  instance.set_name("sparse-chains");
  for (int j = 0; j < jobs; ++j) {
    instance.add_job(Job(MakeChain(chain_len), 0));
  }
  return instance;
}

/// items processed = engine slots simulated, so the before/after pair
/// reads directly as slots-per-second (the docs/REPRODUCING.md table).
void BM_EngineSparseIncremental(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  // Fill every job's lazy Job::metrics() first, so the probe counts the
  // engine's allocations rather than the instance's one-time cache.
  benchmark::DoNotOptimize(instance.max_span());
  {
    // Untimed probe run: heap cost of one full-record simulation.
    FifoScheduler fifo;
    const AllocProbe probe;
    const SimResult result = Simulate(instance, 8, fifo);
    benchmark::DoNotOptimize(result.flows.max_flow);
    state.counters["allocs"] = probe.allocations();
    state.counters["peak_bytes"] = probe.peak_bytes();
  }
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    const SimResult result = Simulate(instance, 8, fifo);
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseIncremental)->Arg(512)->Arg(2048);

/// The record-mode payoff row: the same workload with
/// RecordMode::kFlowOnly, so no Schedule is materialized — flows and
/// stats are tracked online.  Compare allocs/peak_bytes against
/// BM_EngineSparseIncremental for the docs/REPRODUCING.md table.
void BM_EngineSparseFlowOnly(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  benchmark::DoNotOptimize(instance.max_span());  // warm, as above
  {
    FifoScheduler fifo;
    const AllocProbe probe;
    const SimResult result = Simulate(instance, 8, fifo, FlowOnlyOptions());
    benchmark::DoNotOptimize(result.flows.max_flow);
    state.counters["allocs"] = probe.allocations();
    state.counters["peak_bytes"] = probe.peak_bytes();
  }
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    const SimResult result = Simulate(instance, 8, fifo, FlowOnlyOptions());
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseFlowOnly)->Arg(512)->Arg(2048);

/// Flow-only with the metrics observer attached: the sweep-pipeline
/// configuration (BatchRunner cells default to exactly this).
void BM_EngineSparseFlowOnlyObserved(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    MetricsRegistry registry;
    MetricsObserver::Options options;
    options.record_pick_times = false;
    MetricsObserver metrics(registry, options);
    RunContext context{FlowOnlyOptions(), &metrics};
    const SimResult result = Simulate(instance, 8, fifo, context);
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseFlowOnlyObserved)->Arg(512)->Arg(2048);

/// Same workload with a full MetricsObserver attached (per-slot series
/// on, pick timing off): the delta against BM_EngineSparseIncremental is
/// the observability overhead budget (<5% is the acceptance bar; with no
/// observer the hook sites are null-pointer checks).
void BM_EngineSparseObserved(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    MetricsRegistry registry;
    MetricsObserver::Options options;
    options.record_pick_times = false;
    MetricsObserver metrics(registry, options);
    RunContext context;
    context.observer = &metrics;
    const SimResult result = Simulate(instance, 8, fifo, context);
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseObserved)->Arg(512)->Arg(2048);

/// A minimal batch consumer: counts events straight off the SlotEvent
/// records.  The delta
/// against BM_EngineSparseFlowOnly is the floor cost of batched
/// observation itself (ring append + two virtual calls per slot), with
/// no sink work on top.
class BatchCountingObserver final : public otsched::RunObserver {
 public:
  void on_slot_batch(const EngineBackend&,
                     std::span<const SlotEvent> events) override {
    events_ += static_cast<std::int64_t>(events.size());
  }
  bool wants_pick_timing() const override { return false; }
  std::int64_t events() const { return events_; }

 private:
  std::int64_t events_ = 0;
};

void BM_EngineSparseBatchedObserved(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    BatchCountingObserver batches;
    RunContext context{FlowOnlyOptions(), &batches};
    const SimResult result = Simulate(instance, 8, fifo, context);
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(batches.events());
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseBatchedObserved)->Arg(512)->Arg(2048);

void BM_EngineSparseReference(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  std::int64_t horizon = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    const SimResult result = ReferenceSimulate(instance, 8, fifo);
    horizon = result.stats.horizon;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseReference)->Arg(512)->Arg(2048);

void BM_LbSimSlots(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LowerBoundSimOptions options;
    options.m = m;
    options.num_jobs = 4LL * m;
    options.record_sublayer_trace = false;
    const LowerBoundSimResult result = RunLowerBoundSim(options);
    benchmark::DoNotOptimize(result.max_flow);
  }
  // items = simulated slots (horizon ~ num_jobs * (m+1)).
  state.SetItemsProcessed(state.iterations() * 4LL * m * (m + 1));
}
BENCHMARK(BM_LbSimSlots)->Arg(64)->Arg(512);

void BM_AdaptiveAdversary(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FifoScheduler fifo;
    AdaptiveAdversaryOptions options;
    options.m = m;
    options.num_jobs = 2LL * m;
    benchmark::DoNotOptimize(RunAdaptiveAdversary(fifo, options).max_flow);
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * m * (m + 1));
}
BENCHMARK(BM_AdaptiveAdversary)->Arg(16)->Arg(64);

void BM_Section6Checker(benchmark::State& state) {
  Rng rng(9);
  CertifiedInstance cert = MakeSpacedSaturatedInstance(
      static_cast<int>(state.range(0)), 8, 8, rng);
  FifoScheduler fifo;
  // Full-record run: the Section 6 invariant checker walks the
  // materialized slot-by-slot schedule.
  const SimResult run =
      Simulate(cert.instance, static_cast<int>(state.range(0)), fifo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CheckSection6Invariants(run.full_schedule(), cert.instance,
                                static_cast<int>(state.range(0)), cert.opt)
            .checks);
  }
  state.SetItemsProcessed(state.iterations() * cert.instance.total_work());
}
BENCHMARK(BM_Section6Checker)->Arg(16)->Arg(64);

void BM_TraceDerive(benchmark::State& state) {
  Rng rng(10);
  CertifiedInstance cert = MakeSpacedSaturatedInstance(16, 8, 12, rng);
  FifoScheduler fifo;
  // Full-record run: DeriveTrace reconstructs events from the
  // materialized schedule.
  const SimResult run = Simulate(cert.instance, 16, fifo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DeriveTrace(run.full_schedule(), cert.instance).size());
  }
  state.SetItemsProcessed(state.iterations() * cert.instance.total_work());
}
BENCHMARK(BM_TraceDerive);

void BM_SaturatedGenerator(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(MakeSaturatedForest(m, 8, 6, rng));
  }
  state.SetItemsProcessed(state.iterations() * m * 8);
}
BENCHMARK(BM_SaturatedGenerator)->Arg(16)->Arg(256);

/// Reversible-core row: the sparse chain workload of the
/// BM_EngineSparse* family under an active random-crash model with
/// every-slots checkpointing.  The delta against BM_EngineSparseFlowOnly
/// prices the rollback machinery when it actually fires (commit-frontier
/// bookkeeping, ready-region rebuilds, wasted-work accounting); the
/// no-lost-work budget — armed-but-silent within 5% of faults-off — is
/// enforced on BM_EngineSparseFlowOnly* itself by
/// tools/check_bench_trend.py, since arming with rate 0 walks the
/// identical per-slot code paths minus the rebuilds.  Registered last so
/// the family indices of the committed baseline rows stay stable.
void BM_EngineSparseRollback(benchmark::State& state) {
  const Instance instance =
      MakeSparseChainInstance(static_cast<int>(state.range(0)), 32);
  SimOptions options = FlowOnlyOptions();
  options.job_faults.model = JobFaultModel::kRandomCrash;
  options.job_faults.seed = 11;
  options.job_faults.rate = 0.02;
  options.job_faults.checkpoint = CheckpointPolicy::kEveryKSlots;
  options.job_faults.checkpoint_every = 8;
  std::int64_t horizon = 0;
  std::int64_t wasted = 0;
  for (auto _ : state) {
    FifoScheduler fifo;
    const SimResult result = Simulate(instance, 8, fifo, options);
    horizon = result.stats.horizon;
    wasted = result.stats.wasted_subjob_slots;
    benchmark::DoNotOptimize(result.flows.max_flow);
  }
  state.counters["wasted_slots"] = static_cast<double>(wasted);
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_EngineSparseRollback)->Arg(512)->Arg(2048);

/// The stream of `otsched gen trees <jobs> 40 7 1`: mixed 40-node
/// out-trees, job i released at 7i.
Instance MakeTreeStream(std::int64_t jobs) {
  Rng rng(1);
  return MakePeriodicArrivals(
      jobs, 7,
      [](std::int64_t i, Rng& r) {
        return MakeTree(static_cast<TreeFamily>(i % 4), 40, r);
      },
      rng);
}

/// The OPT lower bound every reported ratio divides by: ComputeLowerBounds
/// at m = 8 on the stream of `otsched gen trees N 40 7 1` (N mixed
/// 40-node out-trees, job i released at 7i, so every release is
/// distinct).  The instance is built outside the timed loop.  Registered
/// after the baseline rows so their family indices stay stable.
void BM_LowerBounds(benchmark::State& state) {
  const Instance instance = MakeTreeStream(state.range(0));
  for (const Job& job : instance.jobs()) job.metrics();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeLowerBounds(instance, 8).best());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LowerBounds)->Arg(1000)->Arg(10000);

/// Instance text both ways on MakeTreeStream(1000): parse is
/// TryInstanceFromText (the load behind every `run`), write is
/// InstanceToText (the text `run` hashes for its manifest).  The text and
/// the instance are built outside the timed loop; bytes processed is the
/// text's size, so the rows read as MB/s.
void BM_InstanceTextParse(benchmark::State& state) {
  const std::string text = InstanceToText(MakeTreeStream(1000));
  for (auto _ : state) {
    std::string error;
    benchmark::DoNotOptimize(TryInstanceFromText(text, &error));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_InstanceTextParse)->Name("BM_InstanceText/parse");

void BM_InstanceTextWrite(benchmark::State& state) {
  const Instance instance = MakeTreeStream(1000);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string text = InstanceToText(instance);
    bytes = static_cast<std::int64_t>(text.size());
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_InstanceTextWrite)->Name("BM_InstanceText/write");

}  // namespace
}  // namespace otsched
