#include "job/serialize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "common/assert.h"
#include "dag/validate.h"

namespace otsched {
namespace {

constexpr std::string_view kMagic = "otsched-instance-v1";

// Appends the decimal digits of `value` to `out`.
template <typename Int>
void AppendInt(std::string& out, Int value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

// Digits of the largest node id of a job with `node_count` nodes.
std::size_t NodeIdDigits(NodeId node_count) {
  char digits[16];
  return static_cast<std::size_t>(
      std::to_chars(digits, digits + sizeof digits, node_count).ptr - digits);
}

// The bytes the classic locale's isspace accepts, but for '\n', which
// never reaches a line.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

// The text's lines, one per '\n' (a last line without one counts too), cut
// at their first '#'; lines left holding only ' ', '\t' and '\r' are
// skipped but still counted.
class Lines {
 public:
  explicit Lines(std::string_view text) : text_(text) {}

  bool next(std::string_view& line) {
    while (!text_.empty()) {
      const std::size_t length = std::min(text_.find('\n'), text_.size());
      line = text_.substr(0, length);
      text_.remove_prefix(std::min(length + 1, text_.size()));
      ++number_;
      line = line.substr(0, line.find('#'));
      if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
        return true;
      }
    }
    return false;
  }

  int number() const { return number_; }

 private:
  std::string_view text_;
  int number_ = 0;
};

// Reads one line's fields the way `std::istream >>` does in the classic
// locale: each read skips whitespace first; a token runs to the next
// whitespace; an integer is an optional '+' or '-' and decimal digits,
// ends at the first non-digit, and fails when it does not fit its type.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  std::string_view token() {
    skip_space();
    std::size_t length = 0;
    while (length < rest_.size() && !IsSpace(rest_[length])) ++length;
    const std::string_view token = rest_.substr(0, length);
    rest_.remove_prefix(length);
    return token;
  }

  template <typename Int>
  bool read(Int& value) {
    skip_space();
    const char* first = rest_.data();
    const char* last = first + rest_.size();
    // from_chars takes no '+'; a sign must be followed by a digit.
    if (first != last && *first == '+' && ++first != last && *first == '-') {
      return false;
    }
    const auto [end, status] = std::from_chars(first, last, value);
    if (status != std::errc()) return false;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return true;
  }

  // The unread rest of the line, whitespace included.
  std::string_view rest() const { return rest_; }

 private:
  void skip_space() {
    while (!rest_.empty() && IsSpace(rest_.front())) rest_.remove_prefix(1);
  }

  std::string_view rest_;
};

// Reads the whole of `path` into `text`: one read sized by fstat, then
// reads to the end for a file that grew or has no size (a pipe).  A read
// error ends the text where it stopped.
bool ReadFile(const std::string& path, std::string* text) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat info;
  const std::size_t size =
      ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)
          ? static_cast<std::size_t>(info.st_size)
          : 0;
  // One spare byte, so a file read whole ends in a zero-byte read.
  text->resize(size + 1);
  std::size_t used = 0;
  while (true) {
    if (used == text->size()) text->resize(2 * used + 4096);
    const ssize_t got = ::read(fd, text->data() + used, text->size() - used);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    used += static_cast<std::size_t>(got);
  }
  ::close(fd);
  text->resize(used);
  return true;
}

}  // namespace

std::string InstanceToText(const Instance& instance) {
  std::size_t bytes = kMagic.size() + 8 + instance.name().size();
  for (const Job& job : instance.jobs()) {
    const Dag& dag = job.dag();
    bytes += 48 + job.name().size() +
             static_cast<std::size_t>(dag.edge_count()) *
                 (2 * NodeIdDigits(dag.node_count()) + 2);
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagic).push_back('\n');
  if (!instance.name().empty()) {
    out.append("name ").append(instance.name()).push_back('\n');
  }
  for (const Job& job : instance.jobs()) {
    const Dag& dag = job.dag();
    out.append("job ");
    AppendInt(out, job.release());
    out.push_back(' ');
    AppendInt(out, dag.node_count());
    if (!job.name().empty()) out.append(" ").append(job.name());
    out.push_back('\n');
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      // One edge line: "<v> <child>\n", with v's digits written once.
      char line[32];
      char* const from_end = std::to_chars(line, line + 16, v).ptr;
      *from_end = ' ';
      for (NodeId c : dag.children(v)) {
        char* const end = std::to_chars(from_end + 1, line + 31, c).ptr;
        *end = '\n';
        out.append(line, end + 1);
      }
    }
    out.append("end\n");
  }
  return out;
}

std::optional<Instance> TryInstanceFromText(const std::string& text,
                                            std::string* error) {
  Lines lines(text);
  std::string_view line;

  auto fail = [&](std::string_view what) -> std::optional<Instance> {
    if (error != nullptr) {
      *error = "instance line " + std::to_string(lines.number()) + ": ";
      error->append(what);
    }
    return std::nullopt;
  };

  if (!lines.next(line)) return fail("empty instance file");
  if (const std::string_view magic = Fields(line).token(); magic != kMagic) {
    return fail("bad magic '" + std::string(magic) +
                "' (want otsched-instance-v1)");
  }

  Instance instance;
  while (lines.next(line)) {
    Fields fields(line);
    const std::string_view keyword = fields.token();
    if (keyword == "name") {
      // The rest of the line past its leading spaces, less the carriage
      // returns a CRLF file ends it with.
      std::string_view name = fields.rest();
      name.remove_prefix(std::min(name.find_first_not_of(' '), name.size()));
      instance.set_name(
          std::string(name.substr(0, name.find_last_not_of('\r') + 1)));
    } else if (keyword == "job") {
      Time release = -1;
      NodeId node_count = -1;
      if (!fields.read(release) || !fields.read(node_count)) {
        return fail("job needs release and size");
      }
      if (release < 0 || node_count < 1) {
        return fail("bad job header (release " + std::to_string(release) +
                    ", size " + std::to_string(node_count) + ")");
      }
      const std::string_view job_name = fields.token();

      const int job_line = lines.number();
      Dag::Builder builder(node_count);
      while (true) {
        if (!lines.next(line)) {
          return fail("unterminated job started at line " +
                      std::to_string(job_line));
        }
        if (line.starts_with("end")) break;
        Fields edge(line);
        NodeId from = kInvalidNode;
        NodeId to = kInvalidNode;
        if (!edge.read(from) || !edge.read(to)) {
          return fail("expected an edge or 'end'");
        }
        if (from < 0 || from >= node_count || to < 0 || to >= node_count) {
          return fail("edge " + std::to_string(from) + " -> " +
                      std::to_string(to) + " is outside the job's " +
                      std::to_string(node_count) + " nodes");
        }
        if (from == to) {
          return fail("edge " + std::to_string(from) + " -> " +
                      std::to_string(to) + " is a self-loop, a directed cycle");
        }
        builder.add_edge(from, to);
      }
      Dag dag = std::move(builder).build();
      if (!IsAcyclic(dag)) {
        return fail("the job started at line " + std::to_string(job_line) +
                    " has a directed cycle");
      }
      instance.add_job(Job(std::move(dag), release, std::string(job_name)));
    } else {
      return fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }
  return instance;
}

Instance InstanceFromText(const std::string& text) {
  std::string error;
  std::optional<Instance> instance = TryInstanceFromText(text, &error);
  OTSCHED_CHECK(instance.has_value(), error);
  return *std::move(instance);
}

void SaveInstance(const Instance& instance, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  OTSCHED_CHECK(out != nullptr, "cannot open " << path << " for writing");
  const std::string text = InstanceToText(instance);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  OTSCHED_CHECK(std::fclose(out) == 0 && written,
                "write failure on " << path);
}

std::optional<Instance> TryLoadInstance(const std::string& path,
                                        std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::optional<Instance> instance = TryInstanceFromText(text, error);
  if (!instance.has_value() && error != nullptr) {
    *error = path + ": " + *error;
  }
  return instance;
}

Instance LoadInstance(const std::string& path) {
  std::string error;
  std::optional<Instance> instance = TryLoadInstance(path, &error);
  OTSCHED_CHECK(instance.has_value(), error);
  return *std::move(instance);
}

}  // namespace otsched
