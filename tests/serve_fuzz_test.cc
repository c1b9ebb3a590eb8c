// Wire-protocol fuzz for `otsched serve` (docs/ROBUSTNESS.md): byte-
// mutated NDJSON — truncations, bit flips into invalid UTF-8, digit
// floods that overflow int64, duplicated keys — thrown at
// ParseSubmitRequest directly and at a live daemon.  The contract is
// the CLI's exit-2 style: every malformed line gets a structured
// {"error": ...} diagnostic, nothing crashes, and the connection keeps
// working (the ASan CI lane runs this same binary for memory safety).
#include "gtest_compat.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sched/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace otsched {
namespace {

const char* const kBaseLines[] = {
    "{\"release\": 3, \"parents\": [-1, 0, 1, 1]}",
    "{\"nodes\": 4, \"edges\": [[0, 1], [0, 2], [1, 3]]}",
    "{\"release\": 0, \"nodes\": 2, \"edges\": [[0, 1]]}",
    "{\"release\": 12, \"parents\": [-1]}",
    "{\"nodes\": 3}",
};

/// Uniform draw in [0, bound) — the fuzz corpus's only RNG shape.
int Below(Rng& rng, int bound) {
  return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
}

/// One seeded mutation of a valid submission line.
std::string Mutate(const std::string& base, Rng& rng) {
  std::string line = base;
  switch (Below(rng, 6)) {
    case 0:  // truncation (a torn write)
      line = line.substr(
          0, static_cast<std::size_t>(
                 Below(rng, static_cast<int>(line.size()) + 1)));
      break;
    case 1: {  // byte flip, often into invalid UTF-8
      if (!line.empty()) {
        const auto at = static_cast<std::size_t>(
            Below(rng, static_cast<int>(line.size())));
        line[at] = static_cast<char>(Below(rng, 256));
      }
      break;
    }
    case 2: {  // digit flood: oversized ints that must not wrap quietly
      const std::size_t digit = line.find_first_of("0123456789");
      if (digit != std::string::npos) {
        line.insert(digit, "9999999999999999999");
      }
      break;
    }
    case 3: {  // duplicate a key-value span
      const std::size_t comma = line.find(',');
      if (comma != std::string::npos) {
        line.insert(comma, "," + line.substr(1, comma - 1));
      }
      break;
    }
    case 4: {  // splice two bases together mid-line
      const std::string other = kBaseLines[Below(rng, 5)];
      line = line.substr(0, line.size() / 2) +
             other.substr(other.size() / 2);
      break;
    }
    default: {  // random insertion
      const auto at = static_cast<std::size_t>(
          Below(rng, static_cast<int>(line.size()) + 1));
      line.insert(at, 1, static_cast<char>(Below(rng, 256)));
      break;
    }
  }
  return line;
}

TEST(ServeFuzz, ParseSubmitRequestNeverCrashesOnMutatedLines) {
  Rng rng(20240808);
  int accepted = 0, rejected = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::string line = kBaseLines[Below(rng, 5)];
    const int rounds = 1 + Below(rng, 3);
    for (int r = 0; r < rounds; ++r) line = Mutate(line, rng);
    std::string error;
    const std::optional<serve::SubmitRequest> request =
        serve::ParseSubmitRequest(line, &error);
    if (request.has_value()) {
      // A mutation that stays valid must still be a well-formed DAG.
      EXPECT_GE(request->dag.node_count(), 1) << line;
      EXPECT_GE(request->release, 0) << line;
      ++accepted;
    } else {
      EXPECT_FALSE(error.empty()) << line;
      ++rejected;
    }
  }
  // The corpus must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

/// Blocking TCP client (shared shape with serve_test.cc).
class FuzzClient {
 public:
  explicit FuzzClient(const std::string& address) {
    const std::size_t colon = address.rfind(':');
    const std::string host = address.substr(0, colon);
    const int port = std::atoi(address.c_str() + colon + 1);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~FuzzClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  std::vector<std::string> read_lines(std::size_t lines) {
    while (count_lines() < lines) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::vector<std::string> out;
    std::size_t start = 0;
    while (out.size() < lines) {
      const std::size_t end = buffer_.find('\n', start);
      if (end == std::string::npos) break;
      out.push_back(buffer_.substr(start, end - start));
      start = end + 1;
    }
    buffer_.erase(0, start);
    return out;
  }

 private:
  std::size_t count_lines() const {
    std::size_t count = 0;
    for (const char c : buffer_) {
      if (c == '\n') ++count;
    }
    return count;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// Streams 400 seeded mutations of kBaseLines, then `extra` verbatim
/// lines, at a live daemon running `options`; every line must get one
/// reply and a clean tagged job must still round-trip afterwards, its
/// reply containing `clean_flow`.  `*refused` receives the daemon's
/// serve.refused_jobs counter after the drain (-1 when absent).
void FuzzLiveDaemon(serve::ServeOptions options,
                    const std::vector<std::string>& extra,
                    const std::string& clean_flow, std::int64_t* refused) {
  options.listen = "127.0.0.1:0";
  serve::ScheduleServer server(options,
                               MakePolicy(options.policy, options.seed));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread runner([&server] { server.run(); });

  Rng rng(77);
  FuzzClient client(server.address());
  ASSERT_TRUE(client.connected());
  int sent = 0;
  std::string batch;
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::string line = Mutate(kBaseLines[Below(rng, 5)], rng);
    // Keep the stream line-oriented and countable: no embedded
    // newlines (they would split into extra lines), no empty lines
    // (the daemon skips those without a reply), and no mutated line
    // that is VALID but huge (a lucky digit flood into "nodes" would
    // make this a capacity test, which it is not).
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    if (line.empty()) line = "x";
    std::string parse_error;
    const auto parsed = serve::ParseSubmitRequest(line, &parse_error);
    if (parsed.has_value() &&
        (parsed->dag.node_count() > 64 || parsed->release > 100000 ||
         !parsed->tag.empty())) {
      continue;  // tags would dedup into reply-less lines; skip those too
    }
    batch += line + "\n";
    ++sent;
    if (batch.size() > 32768) {  // bounded batches: exercise reassembly
      client.send_all(batch);
      batch.clear();
    }
  }
  for (const std::string& line : extra) {
    batch += line + "\n";
    ++sent;
  }
  client.send_all(batch);

  // Every line — valid or not — gets exactly one reply line.
  const std::vector<std::string> replies =
      client.read_lines(static_cast<std::size_t>(sent));
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(sent));
  int errors = 0, flows = 0;
  for (const std::string& reply : replies) {
    if (reply.find("\"error\"") != std::string::npos) {
      ++errors;
    } else {
      ASSERT_NE(reply.find("\"flow\""), std::string::npos) << reply;
      ++flows;
    }
  }
  EXPECT_GT(errors, 0);

  // The daemon is still healthy after the noise: a clean tagged job
  // round-trips on the same connection.
  client.send_all("{\"id\": \"after-the-storm\", \"release\": 0, "
                  "\"parents\": [-1, 0]}\n");
  const auto clean = client.read_lines(1);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_NE(clean[0].find("\"id\": \"after-the-storm\""), std::string::npos)
      << clean[0];
  EXPECT_NE(clean[0].find(clean_flow), std::string::npos) << clean[0];

  server.request_stop();
  runner.join();
  EXPECT_EQ(server.jobs_finished(), server.jobs_submitted());
  EXPECT_EQ(server.jobs_finished(), flows + 1);
  const auto& counters = server.registry().counters();
  const auto it = counters.find("serve.refused_jobs");
  *refused = it == counters.end() ? -1 : it->second.value();
}

TEST(ServeFuzz, LiveDaemonAnswersEveryMutatedLineAndStaysHealthy) {
  serve::ServeOptions options;
  options.policy = "fifo/first-ready";
  options.m = 2;
  std::int64_t refused = 0;
  FuzzLiveDaemon(options, {}, "\"flow\": 2", &refused);
  EXPECT_EQ(refused, -1);
}

TEST(ServeFuzz, DefaultPolicyDaemonRefusesNonForestsAndStaysHealthy) {
  // alg-a/general, the daemon's default, runs out-forests only: the
  // in-tree line (and any mutation that gives a node two parents) gets
  // an error reply instead of aborting the process.
  std::int64_t refused = 0;
  FuzzLiveDaemon(
      serve::ServeOptions{},
      {"{\"release\": 0, \"nodes\": 3, \"edges\": [[0, 2], [1, 2]]}"},
      "\"flow\"", &refused);
  EXPECT_GE(refused, 1);
}

}  // namespace
}  // namespace otsched
