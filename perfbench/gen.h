// Seeded input generators for the benchmark workloads (see NOTES.md).
//
// Every workload's input is a pure function of (workload, seed): the
// load client and the traced harness both draw the same job sequence
// from this header, so the harness can rebuild exactly what the daemon
// was sent.  The program under test only ever sees the rendered NDJSON
// lines or .inst files.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Closed loop: jobs in flight per client connection.  The traced serve
/// replay caps its in-flight jobs at connections x kWindow too.
inline constexpr int kWindow = 32;

/// splitmix64: tiny, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// One generated job: `nodes` unit subjobs, precedence edges (u < v),
/// and the requested release slot.  `tree` jobs have exactly one parent
/// per non-root node and render in the `parents` spelling.
struct GenJob {
  std::int64_t release = 0;
  int nodes = 0;
  bool tree = false;
  std::vector<int> parents;                 // tree jobs: parent or -1
  std::vector<std::pair<int, int>> edges;   // every job: [from, to]
};

struct WorkloadShape {
  int min_nodes;
  int max_nodes;
  bool tree;
  bool distinct_releases;  // strictly increasing releases
  int m;                   // machine the load figure refers to
  double load;             // offered work per slot over m
};

inline bool ShapeFor(const std::string& workload, WorkloadShape* shape) {
  if (workload == "serve-outtree") {
    *shape = {4, 40, true, false, 8, 0.9};
  } else if (workload == "serve-journal") {
    *shape = {3, 10, false, false, 8, 0.9};
  } else if (workload == "run-stream") {
    *shape = {16, 96, true, true, 8, 0.9};
  } else if (workload == "sweep-rollback") {
    *shape = {16, 112, true, false, 8, 0.9};
  } else {
    return false;
  }
  return true;
}

/// The infinite job sequence of one workload.
class JobStream {
 public:
  JobStream(const WorkloadShape& shape, std::uint64_t seed)
      : shape_(shape), rng_(seed) {
    const double mean_nodes = 0.5 * (shape.min_nodes + shape.max_nodes);
    mean_gap_ = mean_nodes / (shape.load * shape.m);
  }

  GenJob next() {
    GenJob job;
    job.nodes = static_cast<int>(rng_.uniform(shape_.min_nodes,
                                              shape_.max_nodes));
    job.tree = shape_.tree;
    if (shape_.tree) {
      // Random recursive tree with a per-job attachment reach: reach 1
      // is a chain, large reach is bushy, so spans vary widely.
      const int reach = static_cast<int>(rng_.uniform(1, 8));
      job.parents.assign(static_cast<std::size_t>(job.nodes), -1);
      for (int v = 1; v < job.nodes; ++v) {
        const int span = v < reach ? v : reach;
        const int parent = v - 1 - static_cast<int>(rng_.uniform(0, span - 1));
        job.parents[static_cast<std::size_t>(v)] = parent;
        job.edges.emplace_back(parent, v);
      }
    } else {
      // General DAG: each node draws up to two predecessors among the
      // earlier nodes (a node with none is an extra root).
      for (int v = 1; v < job.nodes; ++v) {
        const int preds = static_cast<int>(rng_.uniform(0, 2));
        int last = -1;
        for (int k = 0; k < preds; ++k) {
          const int u = static_cast<int>(rng_.uniform(0, v - 1));
          if (u == last) continue;
          job.edges.emplace_back(u, v);
          last = u;
        }
      }
    }
    // Poisson arrivals at the shape's load: exponential gaps on a real
    // valued clock, floored to a slot only when read, so the mean gap
    // stays mean_gap_.  Distinct releases push a collision one slot on.
    clock_ += -std::log(rng_.unit()) * mean_gap_;
    std::int64_t release = static_cast<std::int64_t>(std::floor(clock_));
    if (shape_.distinct_releases) release = std::max(release, release_ + 1);
    release_ = release;
    job.release = release;
    work_ += job.nodes;
    return job;
  }

  /// Work drawn so far over (last release + 1) x m: the offered load
  /// the jobs drawn so far realise.
  double realised_load() const {
    if (release_ < 0) return 0.0;
    return static_cast<double>(work_) /
           (static_cast<double>(release_ + 1) * shape_.m);
  }

 private:
  WorkloadShape shape_;
  Rng rng_;
  double mean_gap_ = 1.0;
  double clock_ = 0.0;
  std::int64_t release_ = -1;
  std::int64_t work_ = 0;
};

/// One NDJSON submission line (newline included).  `with_release`
/// false leaves the release for the daemon to clamp.
inline std::string SubmitLine(const GenJob& job, const std::string& tag,
                              bool with_release) {
  std::string line = "{\"id\": \"" + tag + "\"";
  if (with_release) line += ", \"release\": " + std::to_string(job.release);
  if (job.tree) {
    line += ", \"parents\": [";
    for (int v = 0; v < job.nodes; ++v) {
      if (v > 0) line += ", ";
      line += std::to_string(job.parents[static_cast<std::size_t>(v)]);
    }
    line += "]}\n";
  } else {
    line += ", \"nodes\": " + std::to_string(job.nodes) + ", \"edges\": [";
    for (std::size_t i = 0; i < job.edges.size(); ++i) {
      if (i > 0) line += ", ";
      line += '[';
      line += std::to_string(job.edges[i].first);
      line += ", ";
      line += std::to_string(job.edges[i].second);
      line += ']';
    }
    line += "]}\n";
  }
  return line;
}

/// The otsched-instance-v1 text of the first `count` jobs; their
/// realised load goes to `*load`.
inline std::string InstanceText(const WorkloadShape& shape,
                                std::uint64_t seed, std::int64_t count,
                                const std::string& name, double* load) {
  JobStream stream(shape, seed);
  std::string text = "otsched-instance-v1\nname " + name + "\n";
  for (std::int64_t i = 0; i < count; ++i) {
    const GenJob job = stream.next();
    text += "job " + std::to_string(job.release) + " " +
            std::to_string(job.nodes) + "\n";
    for (const auto& [u, v] : job.edges) {
      text += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    text += "end\n";
  }
  *load = stream.realised_load();
  return text;
}

}  // namespace perfbench
