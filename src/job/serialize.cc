#include "job/serialize.h"

#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "dag/validate.h"

namespace otsched {

std::string InstanceToText(const Instance& instance) {
  std::ostringstream out;
  out << "otsched-instance-v1\n";
  if (!instance.name().empty()) out << "name " << instance.name() << '\n';
  for (const Job& job : instance.jobs()) {
    out << "job " << job.release() << ' ' << job.dag().node_count();
    if (!job.name().empty()) out << ' ' << job.name();
    out << '\n';
    const Dag& dag = job.dag();
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      for (NodeId c : dag.children(v)) out << v << ' ' << c << '\n';
    }
    out << "end\n";
  }
  return out.str();
}

std::optional<Instance> TryInstanceFromText(const std::string& text,
                                            std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;

  auto fail = [&](const std::string& what) -> std::optional<Instance> {
    if (error != nullptr) {
      *error = "instance line " + std::to_string(line_number) + ": " + what;
    }
    return std::nullopt;
  };

  auto next_line = [&](std::string& out_line) {
    while (std::getline(in, out_line)) {
      ++line_number;
      const std::size_t hash = out_line.find('#');
      if (hash != std::string::npos) out_line.resize(hash);
      // Skip whitespace-only lines.
      if (out_line.find_first_not_of(" \t\r") != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  if (!next_line(line)) return fail("empty instance file");
  {
    std::istringstream fields(line);
    std::string magic;
    fields >> magic;
    if (magic != "otsched-instance-v1") {
      return fail("bad magic '" + magic +
                  "' (want otsched-instance-v1)");
    }
  }

  Instance instance;
  while (next_line(line)) {
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "name") {
      std::string name;
      std::getline(fields, name);
      const std::size_t start = name.find_first_not_of(' ');
      instance.set_name(start == std::string::npos ? ""
                                                   : name.substr(start));
    } else if (keyword == "job") {
      Time release = -1;
      NodeId node_count = -1;
      if (!(fields >> release >> node_count)) {
        return fail("job needs release and size");
      }
      if (release < 0 || node_count < 1) {
        return fail("bad job header (release " + std::to_string(release) +
                    ", size " + std::to_string(node_count) + ")");
      }
      std::string job_name;
      fields >> job_name;

      const int job_line = line_number;
      Dag::Builder builder(node_count);
      while (true) {
        if (!next_line(line)) {
          return fail("unterminated job started at line " +
                      std::to_string(job_line));
        }
        if (line.rfind("end", 0) == 0) break;
        std::istringstream edge(line);
        NodeId from = kInvalidNode;
        NodeId to = kInvalidNode;
        if (!(edge >> from >> to)) {
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
      instance.add_job(Job(std::move(dag), release, job_name));
    } else {
      return fail("unknown keyword '" + keyword + "'");
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
  std::ofstream out(path);
  OTSCHED_CHECK(out.good(), "cannot open " << path << " for writing");
  out << InstanceToText(instance);
  OTSCHED_CHECK(out.good(), "write failure on " << path);
}

std::optional<Instance> TryLoadInstance(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::optional<Instance> instance =
      TryInstanceFromText(buffer.str(), error);
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
