// Job-side fault injection: subjobs that crash and roll back to their
// last checkpoint (the waste/recovery model of cooperative checkpointing
// on shared platforms — ROADMAP item 4).
//
// Where sim/faults.h degrades the MACHINE (per-slot capacity budgets
// m_t <= m), this header degrades the JOBS: a crashed job loses every
// subjob executed since its last checkpoint and re-enqueues that work in
// deterministic order.  A JobFaultSpec selects a deterministic, seeded
// crash model plus a checkpoint-interval policy; a JobFaultSequencer
// turns the spec into the per-(slot, job) crash/checkpoint stream both
// engines consume.
//
// Determinism contract: the stochastic model (kRandomCrash) is
// counter-based — whether a job crashes is a pure function of
// (seed, slot, job), never of visit order — so fast-forwarded stretches
// cannot desynchronize two engines and a replayed repro crashes the same
// jobs in the same slots.  kPeriodicCrash is a pure function of the
// job's age; kAdversarialLoss is stateful only on the job's volatile
// (uncommitted) work, which the engine-equivalence gate proves identical
// across engines.
//
// Slot protocol (identical in SimDriver and ReferenceSimulate):
//   1. arrivals, then processor-fault capacity resolution (sim/faults.h);
//   2. the ROLLBACK step: every alive job with volatile work > 0 asks
//      `crashes(slot, job, release, volatile)`; a crashed job rolls back
//      to its checkpoint (kRollback SlotEvent, `faults.rollbacks` and
//      `work.wasted_slots` metrics);
//   3. pick / validate / execute as today;
//   4. the CHECKPOINT step at end of slot: every alive unfinished job
//      with volatile work asks `checkpoint_due(slot, volatile)`; finishing
//      a job always commits implicitly (a finished job is never rolled
//      back, so retire-on-finish recycling stays sound).
//
// Progress caveat: a spec that crashes a job faster than its checkpoint
// policy can commit (e.g. kAdversarialLoss with threshold <= the
// checkpoint interval under kOnCompletion) can starve the run forever;
// the engines' faulted horizon bound turns that livelock into a loud
// CHECK failure, exactly like a starved processor-fault spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace otsched {

enum class JobFaultModel {
  kNone,             // no job ever crashes (the default; zero overhead)
  kRandomCrash,      // iid per-(slot, job) crash with probability `rate`
  kPeriodicCrash,    // deterministic crash every `period` slots of job age
  kAdversarialLoss,  // crash the moment volatile work reaches `threshold`
};

const char* ToString(JobFaultModel model);

/// Parses a model name ("none", "random-crash", "periodic-crash",
/// "adversarial-loss"); nullopt for unknown names.
std::optional<JobFaultModel> ParseJobFaultModel(std::string_view name);

enum class CheckpointPolicy {
  kOnCompletion,   // only the implicit commit when the job finishes
  kEveryKSlots,    // commit every job at slots divisible by k
  kEveryKSubjobs,  // commit a job once its volatile work reaches k
};

const char* ToString(CheckpointPolicy policy);

/// One job-fault instantiation, carried by SimOptions.  Cheap to copy.
struct JobFaultSpec {
  JobFaultModel model = JobFaultModel::kNone;
  /// Stream seed for kRandomCrash.
  std::uint64_t seed = 1;
  /// kRandomCrash per-(slot, job) crash probability in [0, 0.9].
  double rate = 0.05;
  /// kPeriodicCrash cadence in slots of job age (>= 2; a job crashes
  /// whenever (slot - release) is a positive multiple of `period`).
  Time period = 64;
  /// kAdversarialLoss volatile-work trigger (>= 1 subjobs).
  std::int64_t threshold = 8;
  /// When volatile work becomes committed (survives future crashes).
  CheckpointPolicy checkpoint = CheckpointPolicy::kOnCompletion;
  /// The k of kEveryKSlots / kEveryKSubjobs (>= 1).
  std::int64_t checkpoint_every = 16;

  bool active() const { return model != JobFaultModel::kNone; }
};

/// Renders a spec as the CLI's `model:seed:param` shorthand (manifests):
/// "none", "random-crash:7:0.1", "periodic-crash:1:64",
/// "adversarial-loss:1:8".
std::string ToString(const JobFaultSpec& spec);

/// Renders the checkpoint half of a spec for manifests:
/// "on-completion", "every-slots:16", "every-subjobs:16".
std::string CheckpointPolicyString(const JobFaultSpec& spec);

/// Parses the CLI shorthand `model[:seed[:param]]`, e.g.
/// `random-crash:7:0.1` (param = rate), `periodic-crash:1:32`
/// (param = period), `adversarial-loss:1:4` (param = threshold).  On
/// failure returns nullopt and writes a per-token diagnostic to `error`.
/// The checkpoint fields keep their defaults; see
/// ParseCheckpointPolicyInto.
std::optional<JobFaultSpec> ParseJobFaultSpec(std::string_view text,
                                              std::string* error);

/// Parses the CLI `--checkpoint-policy` shorthand into `spec`:
/// `on-completion`, `every-slots:K`, or `every-subjobs:K`.  On failure
/// returns false and writes a per-token diagnostic to `error`.
bool ParseCheckpointPolicyInto(std::string_view text, JobFaultSpec* spec,
                               std::string* error);

/// Validates a spec's parameters (rate range, period, threshold,
/// checkpoint interval); aborts with a message naming the bad field.
/// Engines call this once per run so a bad spec fails loudly.
void ValidateJobFaultSpec(const JobFaultSpec& spec);

/// The per-run crash/checkpoint source: one instance per engine run.
/// Stateless — both queries are pure functions of their arguments — so
/// one instance can serve any number of jobs in any order.
class JobFaultSequencer {
 public:
  explicit JobFaultSequencer(const JobFaultSpec& spec);

  bool active() const { return spec_.active(); }
  const JobFaultSpec& spec() const { return spec_; }

  /// Whether `job` crashes at the top of `slot`.  A job with no volatile
  /// work has nothing to lose and never "crashes" (no event, no metric).
  /// `release` feeds kPeriodicCrash's age; `volatile_work` feeds
  /// kAdversarialLoss's trigger.
  bool crashes(Time slot, JobId job, Time release,
               std::int64_t volatile_work) const;

  /// Whether a job with `volatile_work` uncommitted subjobs checkpoints
  /// at the end of `slot` under the spec's interval policy.
  bool checkpoint_due(Time slot, std::int64_t volatile_work) const;

 private:
  JobFaultSpec spec_;
};

}  // namespace otsched
