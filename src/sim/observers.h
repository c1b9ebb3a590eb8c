// Standard RunObserver sinks: the metrics feed, the streaming trace, and
// the run manifest.
//
// MetricsObserver turns the SlotEvent stream into a MetricsRegistry —
// per-slot utilization/idle/ready-width/alive series, event counters,
// flow-time histograms, per-pick wall time — the quantities the paper
// reasons about (idle slots in the Lemma 5.2 head/tail shape, backlog
// growth in the Theorem 4.2 adversary; see docs/OBSERVABILITY.md for the
// full map).  StreamingTraceObserver keeps the stream's arrive/exec/done
// records as an EventTrace, online; DeriveTrace rebuilds the same records
// post-hoc from a Schedule, and the fuzz harness cross-checks the two as
// an oracle.
#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "job/instance.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace otsched {

/// Provenance of one run: enough to reproduce it bit-for-bit.
struct RunManifest {
  std::string instance_name;
  std::string instance_hash;  // FNV-1a 64 over the serialized instance
  std::int64_t jobs = 0;
  std::int64_t total_work = 0;
  std::string policy;
  int m = 0;
  std::uint64_t seed = 0;
  Time max_horizon = 0;              // 0 = auto
  std::string clairvoyance;          // "policy-default" | "deny" | "allow"
  std::string record;                // "full" | "flow-only"
  std::string faults;                // fault spec shorthand ("none", ...)
  // Job-fault axis (sim/job_faults.h).  Emitted only when job_faults !=
  // "none", keeping pre-job-fault manifests byte-identical (the same
  // convention as the certified extras below).
  std::string job_faults = "none";   // job-fault spec shorthand
  std::string checkpoint_policy = "on-completion";

  // ---- optional certified lower-bound extras (`--certify`) ----
  // certified_bound == 0 means "no certificate attached" and none of the
  // three keys are emitted, keeping pre-certificate manifests
  // byte-identical.
  Time certified_bound = 0;          // verified OPT lower bound
  std::string certificate_method;    // "max-flow" | "dual-fit" | "trivial"
  std::string ratio_vs_certificate;  // "%.4f"-formatted; "" = no run ratio

  /// Standalone manifest document (the CI artifact format).
  std::string to_json() const;
};

/// FNV-1a 64 fingerprint of the instance's canonical text serialization.
std::uint64_t FingerprintInstance(const Instance& instance);

/// Assembles the manifest for a (instance, m, policy, seed, options) run.
RunManifest MakeRunManifest(const Instance& instance, int m,
                            const std::string& policy, std::uint64_t seed,
                            const SimOptions& options);

/// Copies the manifest into a registry's manifest section, so metrics
/// JSON is self-describing.
void WriteManifest(MetricsRegistry& registry, const RunManifest& manifest);

/// Feeds a borrowed MetricsRegistry from the SlotEvent stream.  Metric
/// names and semantics are documented in docs/OBSERVABILITY.md;
/// everything except the pick wall-time histogram is deterministic for a
/// fixed (instance, policy, seed, m).
///
/// Metric handles are resolved ONCE in on_run_begin and the per-slot
/// alive/ready-width figures are read off the kPickBegin record, so a
/// batch costs a few pointer bumps per event instead of a name lookup.
class MetricsObserver final : public RunObserver {
 public:
  struct Options {
    /// Record the pick() wall-time histogram (the one nondeterministic
    /// metric; disable for golden tests and determinism checks).
    bool record_pick_times = true;
  };

  explicit MetricsObserver(MetricsRegistry& registry)
      : MetricsObserver(registry, Options()) {}
  MetricsObserver(MetricsRegistry& registry, Options options);

  void on_run_begin(const EngineBackend& engine) override;
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override;
  void on_finish(const SimResult& result) override;
  bool wants_pick_timing() const override {
    return options_.record_pick_times;
  }

 private:
  // One record's worth of metric updates for the kinds that carry more
  // than a count.
  void record_capacity_change(Time slot, int capacity);
  void record_pick(Time slot, std::int64_t picked, std::int64_t alive,
                   std::int64_t ready_width, double pick_seconds);
  void record_rollback(std::int64_t wasted);
  void record_checkpoint(Time slot, std::int64_t frontier);

  MetricsRegistry& registry_;
  Options options_;
  int m_ = 1;

  // Handles resolved once per run (on_run_begin); the registry owns the
  // metrics and never invalidates references.
  Counter* arrivals_ = nullptr;
  Counter* completions_ = nullptr;
  Counter* executes_ = nullptr;
  Counter* picks_ = nullptr;
  Counter* slots_visited_ = nullptr;
  Counter* capacity_changes_ = nullptr;
  Counter* rollbacks_ = nullptr;
  Counter* checkpoints_ = nullptr;   // commit EVENTS (incl. finish-commits)
  Counter* wasted_ = nullptr;
  Gauge* alive_width_ = nullptr;
  Gauge* ready_width_ = nullptr;
  Histogram* pick_seconds_ = nullptr;
  Series* slot_busy_ = nullptr;
  Series* slot_idle_ = nullptr;
  Series* slot_ready_width_ = nullptr;
  Series* slot_alive_ = nullptr;
  Series* slot_capacity_ = nullptr;
  Series* committed_frontier_ = nullptr;
  // Per-slot coalescing for work.committed_frontier: several jobs can
  // commit in one slot but Series::record requires strictly increasing
  // slots, so the last frontier value of a slot is held back until the
  // slot advances (flushed in on_finish).
  Time pending_frontier_slot_ = 0;
  std::int64_t pending_frontier_ = 0;
  bool pending_frontier_valid_ = false;
};

/// Appends the engine's kArrival/kExecute/kComplete records, unchanged,
/// to a borrowed EventTrace as the run executes.  The result equals
/// DeriveTrace(result.full_schedule(), instance) for every engine, and
/// it keeps working under RecordMode::kFlowOnly (the stream still flows
/// even when no schedule is materialized).
class StreamingTraceObserver final : public RunObserver {
 public:
  explicit StreamingTraceObserver(EventTrace& out) : out_(out) {}

  /// The stream carries the three kinds in exactly the order DeriveTrace
  /// emits them, so a kind filter is the whole sink.
  void on_slot_batch(const EngineBackend& engine,
                     std::span<const SlotEvent> events) override {
    (void)engine;
    for (const SlotEvent& event : events) {
      if (EventTrace::keeps(event.kind)) out_.add(event);
    }
  }

  /// A trace never carries kPickBegin's wall time.
  bool wants_pick_timing() const override { return false; }

 private:
  EventTrace& out_;
};

}  // namespace otsched
