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
//
// Grammar, as the reader accepts it (pinned by instance_serialize_test):
// - A line ends at '\n'; a last line without one counts too.  Each line
//   is cut at its first '#'.  Lines left with only ' ', '\t' and '\r' are
//   skipped, but every line counts toward the "instance line N" numbers.
// - Fields are separated by whitespace: ' ', '\t', '\v', '\f', '\r'.  So
//   tabs and CRLF line ends work, and leading whitespace is allowed.
// - An integer is an optional '+' or '-' and decimal digits.  It ends at
//   the first non-digit, so "1x" reads as 1, and "1e3" as 1 followed by a
//   field that is not a number.  Releases are int64, node ids and sizes
//   int32; a value that overflows its type is an error.
// - The first line not skipped must begin with the magic token; anything
//   after it on that line is ignored.
// - `name` takes the rest of its line verbatim (a trailing '\r'
//   included), less the spaces that lead it.
// - `job` needs a release >= 0 and a size >= 1.  The job name is the next
//   field, if any.  Fields after the name are ignored.
// - Inside a job, a line that starts with "end" in its first column closes
//   the job ("endless" does too).  Every other line must begin with two
//   integers, the edge's ends, within the job and distinct; fields after
//   them are ignored.  A job whose edges close a directed cycle is an
//   error.
// - Any other keyword at the top level is an error.
#pragma once

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

/// File wrapper around TryInstanceFromText; unreadable files report
/// through `error` the same way.
std::optional<Instance> TryLoadInstance(const std::string& path,
                                        std::string* error);

/// Writes InstanceToText to `path`; aborts on I/O errors.
void SaveInstance(const Instance& instance, const std::string& path);

}  // namespace otsched
