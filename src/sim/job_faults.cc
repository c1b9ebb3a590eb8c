#include "sim/job_faults.h"

#include <sstream>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"
#include "sim/fault_hash.h"

namespace otsched {

namespace {

/// Domain separator so `--faults` and `--job-faults` with the same seed
/// draw from independent streams.
constexpr std::uint64_t kJobFaultDomain = 0x4A42464155ULL;  // "JBFAU"

}  // namespace

const char* ToString(JobFaultModel model) {
  switch (model) {
    case JobFaultModel::kNone:
      return "none";
    case JobFaultModel::kRandomCrash:
      return "random-crash";
    case JobFaultModel::kPeriodicCrash:
      return "periodic-crash";
    case JobFaultModel::kAdversarialLoss:
      return "adversarial-loss";
  }
  return "?";
}

std::optional<JobFaultModel> ParseJobFaultModel(std::string_view name) {
  if (name == "none") return JobFaultModel::kNone;
  if (name == "random-crash") return JobFaultModel::kRandomCrash;
  if (name == "periodic-crash") return JobFaultModel::kPeriodicCrash;
  if (name == "adversarial-loss") return JobFaultModel::kAdversarialLoss;
  return std::nullopt;
}

const char* ToString(CheckpointPolicy policy) {
  switch (policy) {
    case CheckpointPolicy::kOnCompletion:
      return "on-completion";
    case CheckpointPolicy::kEveryKSlots:
      return "every-slots";
    case CheckpointPolicy::kEveryKSubjobs:
      return "every-subjobs";
  }
  return "?";
}

std::string ToString(const JobFaultSpec& spec) {
  std::ostringstream out;
  out << ToString(spec.model);
  switch (spec.model) {
    case JobFaultModel::kNone:
      break;
    case JobFaultModel::kRandomCrash:
      out << ':' << spec.seed << ':' << spec.rate;
      break;
    case JobFaultModel::kPeriodicCrash:
      out << ':' << spec.seed << ':' << spec.period;
      break;
    case JobFaultModel::kAdversarialLoss:
      out << ':' << spec.seed << ':' << spec.threshold;
      break;
  }
  return out.str();
}

std::string CheckpointPolicyString(const JobFaultSpec& spec) {
  std::ostringstream out;
  out << ToString(spec.checkpoint);
  if (spec.checkpoint != CheckpointPolicy::kOnCompletion) {
    out << ':' << spec.checkpoint_every;
  }
  return out.str();
}

std::optional<JobFaultSpec> ParseJobFaultSpec(std::string_view text,
                                              std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<JobFaultSpec> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  const std::vector<std::string> parts = SplitFields(text, ':');
  if (parts.size() > 3) {
    return fail("too many ':' fields in job-fault spec '" +
                std::string(text) + "' (want model[:seed[:param]])");
  }
  JobFaultSpec spec;
  const std::optional<JobFaultModel> model = ParseJobFaultModel(parts[0]);
  if (!model.has_value()) {
    return fail("unknown job-fault model '" + parts[0] +
                "' (want none|random-crash|periodic-crash|adversarial-loss)");
  }
  spec.model = *model;
  if (parts.size() >= 2) {
    if (!ParseNonNegative(parts[1], &spec.seed)) {
      return fail("malformed job-fault seed '" + parts[1] +
                  "' (want integer >= 0)");
    }
  }
  if (parts.size() >= 3) {
    switch (spec.model) {
      case JobFaultModel::kNone:
        return fail("job-fault model 'none' takes no parameters, got '" +
                    parts[2] + "'");
      case JobFaultModel::kRandomCrash:
        if (!ParseRate(parts[2], &spec.rate)) {
          return fail("malformed crash rate '" + parts[2] +
                      "' (want a number in [0, 0.9])");
        }
        break;
      case JobFaultModel::kPeriodicCrash:
        if (!ParseNonNegative(parts[2], &spec.period) || spec.period < 2) {
          return fail("malformed crash period '" + parts[2] +
                      "' (want integer >= 2)");
        }
        break;
      case JobFaultModel::kAdversarialLoss:
        if (!ParseNonNegative(parts[2], &spec.threshold) ||
            spec.threshold < 1) {
          return fail("malformed loss threshold '" + parts[2] +
                      "' (want integer >= 1)");
        }
        break;
    }
  }
  return spec;
}

bool ParseCheckpointPolicyInto(std::string_view text, JobFaultSpec* spec,
                               std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  const std::vector<std::string> parts = SplitFields(text, ':');
  if (parts[0] == "on-completion") {
    if (parts.size() > 1) {
      return fail("checkpoint policy 'on-completion' takes no interval, "
                  "got '" + std::string(text) + "'");
    }
    spec->checkpoint = CheckpointPolicy::kOnCompletion;
    return true;
  }
  if (parts[0] == "every-slots" || parts[0] == "every-subjobs") {
    if (parts.size() != 2) {
      return fail("checkpoint policy '" + parts[0] +
                  "' needs an interval (want " + parts[0] + ":K)");
    }
    std::int64_t k = 0;
    if (!ParseNonNegative(parts[1], &k) || k < 1) {
      return fail("malformed checkpoint interval '" + parts[1] +
                  "' (want integer >= 1)");
    }
    spec->checkpoint = parts[0] == "every-slots"
                           ? CheckpointPolicy::kEveryKSlots
                           : CheckpointPolicy::kEveryKSubjobs;
    spec->checkpoint_every = k;
    return true;
  }
  return fail("unknown checkpoint policy '" + parts[0] +
              "' (want on-completion|every-slots:K|every-subjobs:K)");
}

void ValidateJobFaultSpec(const JobFaultSpec& spec) {
  if (!spec.active()) return;
  OTSCHED_CHECK(spec.rate >= 0.0 && spec.rate <= 0.9,
                "job-fault rate must be in [0, 0.9], got " << spec.rate);
  OTSCHED_CHECK(spec.period >= 2,
                "job-fault period must be >= 2, got " << spec.period);
  OTSCHED_CHECK(spec.threshold >= 1,
                "job-fault threshold must be >= 1, got " << spec.threshold);
  OTSCHED_CHECK(spec.checkpoint_every >= 1,
                "checkpoint interval must be >= 1, got "
                    << spec.checkpoint_every);
}

JobFaultSequencer::JobFaultSequencer(const JobFaultSpec& spec)
    : spec_(spec) {
  ValidateJobFaultSpec(spec_);
}

bool JobFaultSequencer::crashes(Time slot, JobId job, Time release,
                                std::int64_t volatile_work) const {
  if (volatile_work <= 0) return false;  // nothing to lose
  switch (spec_.model) {
    case JobFaultModel::kNone:
      return false;
    case JobFaultModel::kRandomCrash:
      return HashUnit(spec_.seed, static_cast<std::uint64_t>(slot),
                      kJobFaultDomain ^ static_cast<std::uint64_t>(job)) <
             spec_.rate;
    case JobFaultModel::kPeriodicCrash: {
      const Time age = slot - release;
      return age > 0 && age % spec_.period == 0;
    }
    case JobFaultModel::kAdversarialLoss:
      return volatile_work >= spec_.threshold;
  }
  return false;
}

bool JobFaultSequencer::checkpoint_due(Time slot,
                                       std::int64_t volatile_work) const {
  if (volatile_work <= 0) return false;
  switch (spec_.checkpoint) {
    case CheckpointPolicy::kOnCompletion:
      return false;
    case CheckpointPolicy::kEveryKSlots:
      return slot % spec_.checkpoint_every == 0;
    case CheckpointPolicy::kEveryKSubjobs:
      return volatile_work >= spec_.checkpoint_every;
  }
  return false;
}

}  // namespace otsched
