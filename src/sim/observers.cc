#include "sim/observers.h"

#include <cmath>

#include "common/assert.h"
#include "common/fnv.h"
#include "job/serialize.h"

namespace otsched {
namespace {

/// Flow times are slot counts; powers of two to 2^20 cover every
/// experiment horizon in the repository.
std::vector<double> FlowBuckets() {
  std::vector<double> bounds;
  for (int p = 0; p <= 20; ++p) {
    bounds.push_back(static_cast<double>(std::int64_t{1} << p));
  }
  return bounds;
}

/// Decades from 100ns to 1s: pick() of every implemented policy lands in
/// the first few buckets; the tail catches pathological policies.
std::vector<double> PickSecondsBuckets() {
  std::vector<double> bounds;
  for (int p = -7; p <= 0; ++p) {
    bounds.push_back(std::pow(10.0, p));
  }
  return bounds;
}

const char* ToString(ClairvoyanceOverride mode) {
  switch (mode) {
    case ClairvoyanceOverride::kPolicyDefault:
      return "policy-default";
    case ClairvoyanceOverride::kDeny:
      return "deny";
    case ClairvoyanceOverride::kAllow:
      return "allow";
  }
  return "policy-default";
}

const char* ToString(RecordMode mode) {
  switch (mode) {
    case RecordMode::kFull:
      return "full";
    case RecordMode::kFlowOnly:
      return "flow-only";
  }
  return "full";
}

}  // namespace

std::uint64_t FingerprintInstance(const Instance& instance) {
  return Fnv1a(kFnvOffset, InstanceToText(instance));
}

RunManifest MakeRunManifest(const Instance& instance, int m,
                            const std::string& policy, std::uint64_t seed,
                            const SimOptions& options) {
  RunManifest manifest;
  manifest.instance_name = instance.name();
  manifest.instance_hash = Hex16(FingerprintInstance(instance));
  manifest.jobs = instance.job_count();
  manifest.total_work = instance.total_work();
  manifest.policy = policy;
  manifest.m = m;
  manifest.seed = seed;
  manifest.max_horizon = options.max_horizon;
  manifest.clairvoyance = ToString(options.clairvoyance);
  manifest.record = ToString(options.record);
  manifest.faults = ToString(options.faults);
  manifest.job_faults = ToString(options.job_faults);
  manifest.checkpoint_policy = CheckpointPolicyString(options.job_faults);
  return manifest;
}

std::string RunManifest::to_json() const {
  std::string out = "{\n";
  out += "  \"instance\": " + JsonString(instance_name) + ",\n";
  out += "  \"instance_hash\": " + JsonString(instance_hash) + ",\n";
  out += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "  \"total_work\": " + std::to_string(total_work) + ",\n";
  out += "  \"policy\": " + JsonString(policy) + ",\n";
  out += "  \"m\": " + std::to_string(m) + ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"max_horizon\": " + std::to_string(max_horizon) + ",\n";
  out += "  \"clairvoyance\": " + JsonString(clairvoyance) + ",\n";
  out += "  \"record\": " + JsonString(record) + ",\n";
  out += "  \"faults\": " + JsonString(faults);
  if (job_faults != "none" && !job_faults.empty()) {
    out += ",\n  \"job_faults\": " + JsonString(job_faults);
    out += ",\n  \"checkpoint_policy\": " + JsonString(checkpoint_policy);
  }
  if (certified_bound > 0) {
    out += ",\n  \"certified_bound\": " + std::to_string(certified_bound);
    out += ",\n  \"certificate_method\": " + JsonString(certificate_method);
    if (!ratio_vs_certificate.empty()) {
      out += ",\n  \"ratio_vs_certificate\": " +
             JsonString(ratio_vs_certificate);
    }
  }
  out += "\n}\n";
  return out;
}

void WriteManifest(MetricsRegistry& registry, const RunManifest& manifest) {
  registry.set_manifest("instance", manifest.instance_name);
  registry.set_manifest("instance_hash", manifest.instance_hash);
  registry.set_manifest("jobs", manifest.jobs);
  registry.set_manifest("total_work", manifest.total_work);
  registry.set_manifest("policy", manifest.policy);
  registry.set_manifest("m", static_cast<std::int64_t>(manifest.m));
  registry.set_manifest("seed", static_cast<std::int64_t>(manifest.seed));
  registry.set_manifest("max_horizon", manifest.max_horizon);
  registry.set_manifest("clairvoyance", manifest.clairvoyance);
  registry.set_manifest("record", manifest.record);
  registry.set_manifest("faults", manifest.faults);
  if (manifest.job_faults != "none" && !manifest.job_faults.empty()) {
    registry.set_manifest("job_faults", manifest.job_faults);
    registry.set_manifest("checkpoint_policy", manifest.checkpoint_policy);
  }
  if (manifest.certified_bound > 0) {
    registry.set_manifest("certified_bound", manifest.certified_bound);
    registry.set_manifest("certificate_method", manifest.certificate_method);
    if (!manifest.ratio_vs_certificate.empty()) {
      registry.set_manifest("ratio_vs_certificate",
                            manifest.ratio_vs_certificate);
    }
  }
}

MetricsObserver::MetricsObserver(MetricsRegistry& registry, Options options)
    : registry_(registry), options_(options) {}

void MetricsObserver::on_run_begin(const EngineBackend& engine) {
  m_ = engine.m();
  // Touch every metric up front so the emitted JSON has a stable shape
  // (an empty run still serializes all keys), and capture the handles:
  // the registry owns the metrics and never invalidates references, so
  // the per-event work below is a pointer bump, not a name lookup.
  arrivals_ = &registry_.counter("observer.arrivals");
  completions_ = &registry_.counter("observer.completions");
  executes_ = &registry_.counter("observer.executes");
  picks_ = &registry_.counter("observer.picks");
  slots_visited_ = &registry_.counter("observer.slots_visited");
  registry_.counter("engine.busy_slots");
  registry_.counter("engine.executed_subjobs");
  registry_.counter("engine.idle_processor_slots");
  registry_.counter("flow.total_slots");
  capacity_changes_ = &registry_.counter("faults.capacity_changes");
  registry_.counter("faults.faulted_slots");
  registry_.counter("faults.capacity_shortfall");
  rollbacks_ = &registry_.counter("faults.rollbacks");
  checkpoints_ = &registry_.counter("faults.checkpoints");
  wasted_ = &registry_.counter("work.wasted_slots");
  registry_.gauge("engine.horizon");
  registry_.gauge("flow.max");
  alive_width_ = &registry_.gauge("alive.width");
  ready_width_ = &registry_.gauge("ready.width");
  registry_.gauge("utilization.mean");
  registry_.histogram("flow.slots", FlowBuckets());
  pick_seconds_ = nullptr;
  if (options_.record_pick_times) {
    pick_seconds_ = &registry_.histogram("pick.seconds", PickSecondsBuckets());
  }
  pending_frontier_valid_ = false;
  slot_busy_ = &registry_.series("slot.busy");
  slot_idle_ = &registry_.series("slot.idle");
  slot_ready_width_ = &registry_.series("slot.ready_width");
  slot_alive_ = &registry_.series("slot.alive");
  slot_capacity_ = &registry_.series("slot.capacity");
  committed_frontier_ = &registry_.series("work.committed_frontier");
}

void MetricsObserver::record_capacity_change(Time slot, int capacity) {
  capacity_changes_->inc();
  // Sparse by construction: the record only appears when the value
  // changes, so the series is the capacity step function's breakpoints.
  slot_capacity_->record(slot, capacity);
}

void MetricsObserver::record_pick(Time slot, std::int64_t picked,
                                  std::int64_t alive,
                                  std::int64_t ready_width,
                                  double pick_seconds) {
  picks_->inc();
  alive_width_->set(static_cast<double>(alive));
  ready_width_->set(static_cast<double>(ready_width));
  slot_busy_->record(slot, picked);
  slot_idle_->record(slot, m_ - picked);
  slot_ready_width_->record(slot, ready_width);
  slot_alive_->record(slot, alive);
  if (options_.record_pick_times) {
    pick_seconds_->observe(pick_seconds);
  }
}

void MetricsObserver::record_rollback(std::int64_t wasted) {
  rollbacks_->inc();
  wasted_->inc(wasted);
}

void MetricsObserver::record_checkpoint(Time slot, std::int64_t frontier) {
  checkpoints_->inc();
  if (pending_frontier_valid_ && slot != pending_frontier_slot_) {
    committed_frontier_->record(pending_frontier_slot_, pending_frontier_);
  }
  pending_frontier_slot_ = slot;
  pending_frontier_ = frontier;
  pending_frontier_valid_ = true;
}

void MetricsObserver::on_slot_batch(const EngineBackend& engine,
                                    std::span<const SlotEvent> events) {
  (void)engine;
  // Counter deltas accumulate in locals and land once per batch.
  std::int64_t slots = 0;
  std::int64_t arrivals = 0;
  std::int64_t executes = 0;
  std::int64_t completions = 0;
  for (const SlotEvent& event : events) {
    switch (event.kind) {
      case SlotEvent::Kind::kSlotBegin:
        ++slots;
        break;
      case SlotEvent::Kind::kArrival:
        ++arrivals;
        break;
      case SlotEvent::Kind::kCapacityChange:
        record_capacity_change(event.slot, event.value);
        break;
      case SlotEvent::Kind::kPickBegin:
        // alive/ready-width ride on the record: no engine sweep at all.
        record_pick(event.slot, event.value, event.job, event.width,
                    event.seconds);
        break;
      case SlotEvent::Kind::kExecute:
        ++executes;
        break;
      case SlotEvent::Kind::kComplete:
        ++completions;
        break;
      case SlotEvent::Kind::kRollback:
        record_rollback(event.value);
        break;
      case SlotEvent::Kind::kCheckpoint:
        record_checkpoint(event.slot, event.width);
        break;
    }
  }
  if (slots != 0) slots_visited_->inc(slots);
  if (arrivals != 0) arrivals_->inc(arrivals);
  if (executes != 0) executes_->inc(executes);
  if (completions != 0) completions_->inc(completions);
}

void MetricsObserver::on_finish(const SimResult& result) {
  // Authoritative end-of-run figures, copied verbatim from the result the
  // caller receives: metrics consumers and SimStats/FlowSummary readers
  // must never disagree.
  registry_.counter("engine.busy_slots").set(result.stats.busy_slots);
  registry_.counter("engine.executed_subjobs")
      .set(result.stats.executed_subjobs);
  registry_.counter("engine.idle_processor_slots")
      .set(result.stats.idle_processor_slots);
  registry_.counter("faults.faulted_slots").set(result.stats.faulted_slots);
  registry_.counter("faults.capacity_shortfall")
      .set(result.stats.capacity_shortfall);
  // faults.checkpoints stays the event count (finish-commits included):
  // there is no SimStats mirror that subsumes it.
  registry_.counter("faults.rollbacks").set(result.stats.job_rollbacks);
  registry_.counter("work.wasted_slots").set(result.stats.wasted_subjob_slots);
  if (pending_frontier_valid_) {
    committed_frontier_->record(pending_frontier_slot_, pending_frontier_);
    pending_frontier_valid_ = false;
  }
  registry_.gauge("engine.horizon")
      .set(static_cast<double>(result.stats.horizon));
  registry_.gauge("flow.max")
      .set(static_cast<double>(result.flows.max_flow));
  Histogram& flow_hist = registry_.histogram("flow.slots", {});
  std::int64_t total_flow = 0;
  for (std::size_t i = 0; i < result.flows.flow.size(); ++i) {
    const Time flow = result.flows.flow[i];
    if (flow == kInfiniteTime) continue;  // unfinished job (capped runs)
    flow_hist.observe(static_cast<double>(flow));
    total_flow += flow;
  }
  registry_.counter("flow.total_slots").set(total_flow);
  const double capacity =
      static_cast<double>(m_) * static_cast<double>(result.stats.horizon);
  registry_.gauge("utilization.mean")
      .set(capacity > 0.0
               ? static_cast<double>(result.stats.executed_subjobs) / capacity
               : 0.0);
}

}  // namespace otsched
