// Text serialization of whole instances (jobs + releases), so workloads
// can be saved, shipped, and replayed bit-identically — including the
// materialized Section 4 adversarial instances, which are expensive to
// regenerate at large m.
//
// Format (line oriented; '#' starts a comment):
//   otsched-instance-v1
//   name <instance name, may contain spaces>
//   job <release> <node_count> [job name]
//   <from> <to>          (one edge per line, node ids within the job)
//   ...
//   end
//   job ...
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "job/instance.h"

namespace otsched {

std::string InstanceToText(const Instance& instance);

/// Parses the format above.  On malformed input, including a job whose
/// edges form a directed cycle, returns nullopt and writes a per-line
/// diagnostic ("instance line N: ...") to `error` —
/// the recoverable entry point CLI tools use so a typo in a hand-edited
/// file prints a diagnostic instead of aborting the process.
std::optional<Instance> TryInstanceFromText(const std::string& text,
                                            std::string* error);

/// TryInstanceFromText that aborts with the diagnostic on malformed
/// input — for callers whose input is trusted (tests, generators).
Instance InstanceFromText(const std::string& text);

/// File wrapper around TryInstanceFromText; unreadable files report
/// through `error` the same way.
std::optional<Instance> TryLoadInstance(const std::string& path,
                                        std::string* error);

/// Convenience file wrappers (abort on I/O and parse errors).
void SaveInstance(const Instance& instance, const std::string& path);
Instance LoadInstance(const std::string& path);

}  // namespace otsched
