// Load client for `otsched serve` (see NOTES.md).
//
// One process, one thread, a few TCP connections multiplexed with
// poll().  Two phases run back to back on the same connections:
//
//   closed  the first --closed-jobs jobs of the workload's stream, with
//           their explicit releases; each connection keeps kWindow jobs
//           in flight and sends the next one only when a reply returns.
//   open    the next --open-jobs jobs, WITHOUT a release (the daemon
//           clamps it to its current slot), sent at --open-rate jobs/s on
//           a fixed schedule regardless of replies.  Latency is timed
//           from when each submission was due, so a stall is charged to
//           every submission it delays.
//
// Every reply is checked: exactly once per tag, flow == finish -
// release, and effective release >= requested release.  The closed
// phase's replies are written to --log (tag index, job id, effective
// release, finish, flow) for the offline replay check, and the open
// phase's latencies (ms, one a line) to --latency-log.  A one-line JSON
// summary goes to stdout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gen.h"

namespace {

using Clock = std::chrono::steady_clock;

// A phase gives up when no reply has come for this long.
constexpr double kReplyTimeoutS = 60;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string addr;
  std::string workload;
  std::uint64_t seed = 1;
  int conns = 1;
  std::int64_t closed_jobs = 0;
  double open_rate = 0;       // jobs/s
  std::int64_t open_jobs = 0;
  std::string log;
  std::string latency_log;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_pos = 0;
  int in_flight = 0;
};

/// Per-tag bookkeeping: tags are "c<i>" (closed) and "o<i>" (open).
struct Sent {
  std::int64_t requested = 0;  // requested release (0 for open jobs)
  Clock::time_point due{};     // open jobs: when it was due
  bool answered = false;
};

struct Reply {
  bool error = false;
  std::string text;  // error message
  std::string tag;
  std::int64_t job_id = -1, release = -1, finish = -1, flow = -1;
};

bool ReadInt(const std::string& line, const char* key, std::int64_t* out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + std::strlen(key);
  char* end = nullptr;
  *out = std::strtoll(p, &end, 10);
  return end != p;
}

bool ParseReply(const std::string& line, Reply* reply) {
  if (line.find("\"error\":") != std::string::npos) {
    reply->error = true;
    reply->text = line;
    return true;
  }
  const std::size_t at = line.find("\"id\": \"");
  if (at == std::string::npos) return false;
  const std::size_t start = at + 7;
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  reply->tag = line.substr(start, end - start);
  return ReadInt(line, "\"job_id\": ", &reply->job_id) &&
         ReadInt(line, "\"release\": ", &reply->release) &&
         ReadInt(line, "\"finish\": ", &reply->finish) &&
         ReadInt(line, "\"flow\": ", &reply->flow);
}

int Connect(const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(
      std::atoi(addr.c_str() + colon + 1)));
  if (inet_pton(AF_INET, addr.substr(0, colon).c_str(), &sa.sin_addr) != 1) {
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

class Client {
 public:
  explicit Client(const Args& args)
      : args_(args), stream_(Shape(args.workload), args.seed) {}

  bool connect_all() {
    for (int i = 0; i < args_.conns; ++i) {
      Conn conn;
      conn.fd = Connect(args_.addr);
      if (conn.fd < 0) {
        std::fprintf(stderr, "client: cannot connect to %s\n",
                     args_.addr.c_str());
        return false;
      }
      conns_.push_back(conn);
    }
    return true;
  }

  void run() {
    const Clock::time_point wall0 = Clock::now();
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    run_closed();
    in_closed_ = false;
    run_open();
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    const double wall = Seconds(wall0, Clock::now());
    const auto cpu = [](const rusage& r) {
      return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
    };
    for (Conn& conn : conns_) close(conn.fd);
    print_summary(wall, cpu(ru1) - cpu(ru0));
  }

 private:
  static perfbench::WorkloadShape Shape(const std::string& workload) {
    perfbench::WorkloadShape shape{};
    if (!perfbench::ShapeFor(workload, &shape)) {
      std::fprintf(stderr, "client: unknown workload '%s'\n",
                   workload.c_str());
      std::exit(2);
    }
    return shape;
  }

  void run_closed() {
    const Clock::time_point start = Clock::now();
    std::int64_t next = 0;
    last_reply_ = start;
    while (closed_answered_ + closed_failed_ < args_.closed_jobs) {
      for (Conn& conn : conns_) {
        while (conn.in_flight < perfbench::kWindow &&
               next < args_.closed_jobs) {
          send_job(conn, "c", next++, true, Clock::now());
        }
      }
      if (!pump(Clock::now() + std::chrono::milliseconds(100))) break;
      if (Seconds(last_reply_, Clock::now()) > kReplyTimeoutS) break;
    }
    closed_seconds_ = Seconds(start, last_reply_);
    closed_sent_ = next;
    closed_load_ = stream_.realised_load();
  }

  void run_open() {
    const std::int64_t total = args_.open_jobs;
    if (total <= 0) return;
    const Clock::time_point start = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / args_.open_rate);
    std::size_t turn = 0;
    std::vector<double> late;
    last_reply_ = start;
    while (open_answered_ + open_failed_ < total) {
      const Clock::time_point now = Clock::now();
      while (open_sent_ < total) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(open_sent_));
        if (due > now) break;
        late.push_back(1e3 * Seconds(due, now));
        send_job(conns_[turn++ % conns_.size()], "o", open_sent_++, false, due);
      }
      Clock::time_point wake = now + std::chrono::milliseconds(100);
      if (open_sent_ < total) {
        wake = start + std::chrono::duration_cast<Clock::duration>(
                           period * static_cast<double>(open_sent_));
      }
      if (!pump(wake)) break;
      if (open_sent_ == total &&
          Seconds(last_reply_, Clock::now()) > kReplyTimeoutS) {
        break;
      }
    }
    open_seconds_ = Seconds(start, Clock::now());
    late_p99_ = Percentile(late, 0.99);
  }

  void send_job(Conn& conn, const char* kind, std::int64_t index,
                bool with_release, Clock::time_point due) {
    const perfbench::GenJob job = stream_.next();
    std::string tag = kind;
    tag += std::to_string(index);
    std::vector<Sent>& book = kind[0] == 'c' ? closed_ : open_;
    book.push_back({with_release ? job.release : 0, due, false});
    conn.out += perfbench::SubmitLine(job, tag, with_release);
    ++conn.in_flight;
  }

  /// Flushes writes and handles replies until `deadline` or progress.
  bool pump(Clock::time_point deadline) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.size() > conns_[i].out_pos ? POLLOUT : 0));
    }
    const double wait = std::max(0.0, Seconds(Clock::now(), deadline));
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (fds[i].revents & POLLOUT) {
        const ssize_t n = write(conn.fd, conn.out.data() + conn.out_pos,
                                conn.out.size() - conn.out_pos);
        if (n > 0) conn.out_pos += static_cast<std::size_t>(n);
        if (conn.out_pos == conn.out.size()) {
          conn.out.clear();
          conn.out_pos = 0;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        const ssize_t n = read(conn.fd, buf, sizeof(buf));
        if (n <= 0) {
          fail("connection closed by the daemon");
          return false;
        }
        conn.in.append(buf, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl; (nl = conn.in.find('\n', begin)) !=
                             std::string::npos;
             begin = nl + 1) {
          handle_reply(conn, conn.in.substr(begin, nl - begin));
        }
        conn.in.erase(0, begin);
      }
    }
    return true;
  }

  void fail(const std::string& why) {
    if (errors_.size() < 5) errors_.push_back(why);
  }

  void handle_reply(Conn& conn, const std::string& line) {
    const Clock::time_point now = Clock::now();
    last_reply_ = now;
    --conn.in_flight;
    Reply reply;
    // Error replies carry no tag; they count against the phase running.
    std::int64_t& phase_failed = in_closed_ ? closed_failed_ : open_failed_;
    if (!ParseReply(line, &reply)) {
      fail("unparseable reply: " + line);
      ++phase_failed;
      return;
    }
    if (reply.error) {
      if (reply.text.find("overloaded") != std::string::npos) ++overloaded_;
      fail("error reply: " + reply.text);
      ++phase_failed;
      return;
    }
    const bool closed = !reply.tag.empty() && reply.tag[0] == 'c';
    std::vector<Sent>& book = closed ? closed_ : open_;
    const std::int64_t index =
        reply.tag.size() > 1 ? std::atoll(reply.tag.c_str() + 1) : -1;
    if (index < 0 || index >= static_cast<std::int64_t>(book.size())) {
      fail("reply for an unknown tag: " + line);
      ++phase_failed;
      return;
    }
    Sent& sent = book[static_cast<std::size_t>(index)];
    bool ok = true;
    if (sent.answered) {
      fail("duplicate reply: " + line);
      ok = false;
    } else if (reply.flow != reply.finish - reply.release) {
      fail("flow != finish - release: " + line);
      ok = false;
    } else if (reply.release < sent.requested) {
      fail("effective release below the requested one: " + line);
      ok = false;
    }
    if (!ok) {
      (closed ? closed_failed_ : open_failed_)++;
      return;
    }
    sent.answered = true;
    if (closed) {
      ++closed_answered_;
      if (reply.release > sent.requested) ++clamped_;
      max_flow_ = std::max(max_flow_, reply.flow);
      log_.push_back({index, reply.job_id, reply.release, reply.finish,
                      reply.flow});
    } else {
      ++open_answered_;
      latency_ms_.push_back(1e3 * Seconds(sent.due, now));
    }
  }

  void print_summary(double wall, double cpu) {
    if (!args_.log.empty()) {
      std::FILE* f = std::fopen(args_.log.c_str(), "w");
      if (f == nullptr) {
        fail("cannot write " + args_.log);
      } else {
        for (const LogRow& row : log_) {
          std::fprintf(f, "%lld %lld %lld %lld %lld\n",
                       static_cast<long long>(row.index),
                       static_cast<long long>(row.job_id),
                       static_cast<long long>(row.release),
                       static_cast<long long>(row.finish),
                       static_cast<long long>(row.flow));
        }
        std::fclose(f);
      }
    }
    if (!args_.latency_log.empty()) {
      std::FILE* f = std::fopen(args_.latency_log.c_str(), "w");
      if (f == nullptr) {
        fail("cannot write " + args_.latency_log);
      } else {
        for (const double ms : latency_ms_) std::fprintf(f, "%.6f\n", ms);
        std::fclose(f);
      }
    }
    const std::int64_t closed_missing =
        closed_sent_ - closed_answered_ - closed_failed_;
    const std::int64_t open_missing =
        open_sent_ - open_answered_ - open_failed_;
    std::printf(
        "{\"closed_sent\": %lld, \"closed_ok\": %lld, \"closed_failed\": %lld,"
        " \"closed_missing\": %lld, \"closed_seconds\": %.6f,"
        " \"clamped\": %lld, \"max_flow\": %lld, \"closed_load\": %.6f,"
        " \"open_sent\": %lld, \"open_ok\": %lld, \"open_failed\": %lld,"
        " \"open_missing\": %lld, \"open_seconds\": %.6f,"
        " \"p50_ms\": %.6f, \"p99_ms\": %.6f,"
        " \"late_p99_ms\": %.6f, \"overloaded\": %lld,"
        " \"cpu_s\": %.6f, \"wall_s\": %.6f, ",
        static_cast<long long>(closed_sent_),
        static_cast<long long>(closed_answered_),
        static_cast<long long>(closed_failed_),
        static_cast<long long>(std::max<std::int64_t>(0, closed_missing)),
        closed_seconds_, static_cast<long long>(clamped_),
        static_cast<long long>(max_flow_), closed_load_,
        static_cast<long long>(open_sent_),
        static_cast<long long>(open_answered_),
        static_cast<long long>(open_failed_),
        static_cast<long long>(std::max<std::int64_t>(0, open_missing)),
        open_seconds_, Percentile(latency_ms_, 0.50),
        Percentile(latency_ms_, 0.99), late_p99_,
        static_cast<long long>(overloaded_), cpu,
        wall);
    std::printf("\"errors\": [");
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      std::string escaped;
      for (char c : errors_[i]) {
        if (c == '"' || c == '\\') escaped += '\\';
        if (c != '\n') escaped += c;
      }
      std::printf("%s\"%s\"", i > 0 ? ", " : "", escaped.c_str());
    }
    std::printf("]}\n");
  }

  struct LogRow {
    std::int64_t index, job_id, release, finish, flow;
  };

  Args args_;
  perfbench::JobStream stream_;
  std::vector<Conn> conns_;
  std::vector<Sent> closed_, open_;
  std::vector<LogRow> log_;
  std::vector<double> latency_ms_;
  double late_p99_ = 0;
  std::vector<std::string> errors_;
  Clock::time_point last_reply_{};
  std::int64_t closed_sent_ = 0, closed_answered_ = 0, closed_failed_ = 0;
  std::int64_t open_sent_ = 0, open_answered_ = 0, open_failed_ = 0;
  std::int64_t overloaded_ = 0, clamped_ = 0;
  bool in_closed_ = true;
  std::int64_t max_flow_ = 0;
  double closed_seconds_ = 0, open_seconds_ = 0, closed_load_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--addr") args.addr = value;
    else if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--conns") args.conns = std::atoi(value);
    else if (key == "--closed-jobs") args.closed_jobs = std::atoll(value);
    else if (key == "--open-rate") args.open_rate = std::atof(value);
    else if (key == "--open-jobs") args.open_jobs = std::atoll(value);
    else if (key == "--log") args.log = value;
    else if (key == "--latency-log") args.latency_log = value;
    else {
      std::fprintf(stderr, "client: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (args.addr.empty() || args.workload.empty() || args.conns < 1 ||
      (args.open_jobs > 0 && args.open_rate <= 0)) {
    std::fprintf(stderr,
                 "usage: perfbench_client --addr H:P --workload W --seed S "
                 "--conns C --closed-jobs N --open-rate R "
                 "--open-jobs M [--log F] [--latency-log F]\n");
    return 2;
  }
  Client client(args);
  if (!client.connect_all()) return 1;
  client.run();
  return 0;
}
