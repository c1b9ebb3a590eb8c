// Integration tests for the `otsched serve` daemon (src/serve): an
// in-process ScheduleServer on a real TCP socket, a windowed client
// streaming 10k jobs, and the two contracts the daemon exists for:
//
//   * per-job flows match an offline Simulate replay of the effective
//     arrival stream (the echoed releases) bit-for-bit, and
//   * retire-on-reply keeps the driver's arena proportional to the live
//     width of the stream, not its length.
//
// Plus the protocol unit surface: parse errors with byte positions, the
// one-DAG-spelling rule, and the /metrics //healthz HTTP one-shots.
#include "gtest_compat.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dag/validate.h"
#include "sched/registry.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/engine.h"

namespace otsched {
namespace {

/// Blocking TCP client for a "127.0.0.1:port" address.
class TestClient {
 public:
  explicit TestClient(const std::string& address) {
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
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads until `lines` newline-terminated lines have accumulated.
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

  /// Reads until the peer closes (HTTP one-shot responses).
  std::string read_to_eof() {
    std::string out;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
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

struct Reply {
  JobId job = kInvalidJob;
  Time release = 0;
  Time finish = 0;
  Time flow = 0;
};

Reply ParseReply(const std::string& line) {
  Reply reply;
  long long job = -1, release = -1, finish = -1, flow = -1;
  const int got =
      std::sscanf(line.c_str(),
                  "{\"job_id\": %lld, \"release\": %lld, \"finish\": %lld, "
                  "\"flow\": %lld}",
                  &job, &release, &finish, &flow);
  EXPECT_EQ(got, 4) << line;
  reply.job = static_cast<JobId>(job);
  reply.release = release;
  reply.finish = finish;
  reply.flow = flow;
  return reply;
}

class RunningServer {
 public:
  explicit RunningServer(serve::ServeOptions options) {
    server_.emplace(options, MakePolicy(options.policy, options.seed));
    std::string error;
    started_ = server_->start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_->run(); });
    }
  }
  ~RunningServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  serve::ScheduleServer& server() { return *server_; }
  bool started() const { return started_; }

 private:
  std::optional<serve::ScheduleServer> server_;
  std::thread thread_;
  bool started_ = false;
};

TEST(ServeIntegration, TenThousandJobStreamMatchesOfflineReplay) {
  constexpr int kJobs = 10000;
  constexpr int kWindow = 256;  // outstanding submissions (flow control)

  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "list-greedy";
  options.seed = 0;
  options.m = 4;
  options.chunk_slots = 64;
  RunningServer running(options);
  ASSERT_TRUE(running.started());

  TestClient client(running.server().address());
  ASSERT_TRUE(client.connected());

  // Windowed submission: at most kWindow unacknowledged jobs, so the
  // daemon's live width — and with retire-on-reply, its arena — stays
  // O(window) while the stream is 10k jobs long.  Requested release 0 is
  // clamped to the daemon's current slot and echoed back.
  std::vector<Reply> replies;
  replies.reserve(kJobs);
  int sent = 0;
  while (static_cast<int>(replies.size()) < kJobs) {
    std::string batch;
    while (sent < kJobs && sent - static_cast<int>(replies.size()) < kWindow) {
      batch += "{\"release\": 0, \"parents\": [-1, 0, 1]}\n";
      ++sent;
    }
    if (!batch.empty()) client.send_all(batch);
    const std::size_t want =
        static_cast<std::size_t>(sent) - replies.size();
    for (const std::string& line : client.read_lines(std::min<std::size_t>(
             want, static_cast<std::size_t>(kWindow) / 2))) {
      replies.push_back(ParseReply(line));
    }
  }
  running.stop();

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(running.server().jobs_submitted(), kJobs);
  EXPECT_EQ(running.server().jobs_finished(), kJobs);

  // Replies arrive in completion order; ids are dense submission order.
  std::vector<Reply> by_id(kJobs);
  for (const Reply& r : replies) {
    ASSERT_GE(r.job, 0);
    ASSERT_LT(r.job, kJobs);
    by_id[static_cast<std::size_t>(r.job)] = r;
    EXPECT_EQ(r.flow, r.finish - r.release) << r.job;
  }

  // Bounded memory: 10k jobs x 3 nodes = 30k total, but the arena (live
  // + free-listed node slots; it never shrinks, so the final value is
  // the peak) must stay proportional to the window, not the stream.
  EXPECT_LT(running.server().arena_nodes(), 10000)
      << "retire-on-reply failed to bound the arena";

  // Offline replay of the EFFECTIVE stream: same policy, same seed, jobs
  // in id order at their echoed releases.  The daemon's per-job flows
  // must reproduce bit-for-bit (the tick path IS the batch path).
  Instance replay;
  for (int i = 0; i < kJobs; ++i) {
    Dag::Builder builder(3);
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    replay.add_job(Job(std::move(builder).build(),
                       by_id[static_cast<std::size_t>(i)].release));
  }
  std::unique_ptr<Scheduler> offline = MakePolicy(options.policy, options.seed);
  ASSERT_NE(offline, nullptr);
  const SimResult result =
      Simulate(replay, options.m, *offline, FlowOnlyOptions());
  ASSERT_TRUE(result.flows.all_completed);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(result.flows.flow[static_cast<std::size_t>(i)],
              by_id[static_cast<std::size_t>(i)].flow)
        << "job " << i;
    EXPECT_EQ(result.flows.completion[static_cast<std::size_t>(i)],
              by_id[static_cast<std::size_t>(i)].finish)
        << "job " << i;
  }
}

TEST(ServeIntegration, HttpEndpointsAndErrorReplies) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  RunningServer running(options);
  ASSERT_TRUE(running.started());

  {
    TestClient submit(running.server().address());
    ASSERT_TRUE(submit.connected());
    submit.send_all("{\"id\": \"tagged\", \"release\": 0, "
                    "\"parents\": [-1]}\n");
    const auto lines = submit.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"id\": \"tagged\""), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find("\"flow\": 1"), std::string::npos) << lines[0];

    // Malformed lines answer with positioned diagnostics and keep the
    // connection usable.
    submit.send_all("{\"release\": -3, \"parents\": [-1]}\n");
    const auto err = submit.read_lines(1);
    ASSERT_EQ(err.size(), 1u);
    EXPECT_NE(err[0].find("\"error\""), std::string::npos) << err[0];
    EXPECT_NE(err[0].find("negative release"), std::string::npos) << err[0];

    submit.send_all("{\"release\": 0, \"parents\": [-1], \"nodes\": 2, "
                    "\"edges\": [[0, 1]]}\n");
    const auto both = submit.read_lines(1);
    ASSERT_EQ(both.size(), 1u);
    EXPECT_NE(both[0].find("exactly one DAG spelling"), std::string::npos)
        << both[0];

    submit.send_all("{\"release\": 0, \"parents\": [-1, 0]}\n");
    const auto ok = submit.read_lines(1);
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_NE(ok[0].find("\"flow\": 2"), std::string::npos) << ok[0];
  }

  {
    TestClient metrics(running.server().address());
    ASSERT_TRUE(metrics.connected());
    metrics.send_all("GET /metrics HTTP/1.0\r\n\r\n");
    const std::string response = metrics.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(response.find("\"serve.jobs_finished\""), std::string::npos)
        << response;
  }
  {
    TestClient healthz(running.server().address());
    ASSERT_TRUE(healthz.connected());
    healthz.send_all("GET /healthz HTTP/1.0\r\n\r\n");
    const std::string response = healthz.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("ok"), std::string::npos);
  }
  {
    TestClient missing(running.server().address());
    ASSERT_TRUE(missing.connected());
    missing.send_all("GET /nope HTTP/1.0\r\n\r\n");
    const std::string response = missing.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos);
  }

  running.stop();
  EXPECT_EQ(running.server().jobs_finished(), 2);
}

TEST(ServeIntegration, NoNewlineFloodIsBoundedAndRejected) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.max_line_bytes = 4096;  // small cap so the test floods cheaply
  RunningServer running(options);
  ASSERT_TRUE(running.started());

  {
    // A client streaming bytes with no newline must get one structured
    // error reply and a closed connection, not unbounded daemon memory.
    TestClient flood(running.server().address());
    ASSERT_TRUE(flood.connected());
    const std::string junk(64 * 1024, 'x');  // 16x the cap, no newline
    flood.send_all(junk);
    const std::string response = flood.read_to_eof();  // reply, then close
    EXPECT_NE(response.find("\"error\""), std::string::npos) << response;
    EXPECT_NE(response.find("line exceeds max length"), std::string::npos)
        << response;
  }
  {
    // A single over-cap line WITH a newline is rejected the same way.
    TestClient longline(running.server().address());
    ASSERT_TRUE(longline.connected());
    std::string line = "{\"parents\": [-1";
    while (line.size() < 8192) line += ", 0";
    line += "]}\n";
    longline.send_all(line);
    const std::string response = longline.read_to_eof();
    EXPECT_NE(response.find("line exceeds max length"), std::string::npos)
        << response;
  }
  {
    // An under-cap connection is untouched by the new bound.
    TestClient ok(running.server().address());
    ASSERT_TRUE(ok.connected());
    ok.send_all("{\"release\": 0, \"parents\": [-1]}\n");
    const auto lines = ok.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"flow\": 1"), std::string::npos) << lines[0];
  }

  running.stop();
  const auto& counters = running.server().registry().counters();
  const auto rejected = counters.find("serve.rejected_lines");
  ASSERT_NE(rejected, counters.end());
  EXPECT_EQ(rejected->second.value(), 2);
}

TEST(ServeIntegration, AlgAGeneralRefusesANonForestJobAndKeepsServing) {
  const char* dir = ::getenv("TMPDIR");
  const std::string journal = std::string(dir != nullptr ? dir : "/tmp") +
                              "/serve-refused-" +
                              std::to_string(::getpid()) + ".ndjson";
  std::remove(journal.c_str());
  serve::ServeOptions options;  // the default policy, alg-a/general
  options.listen = "127.0.0.1:0";
  options.journal_path = journal;
  RunningServer running(options);
  ASSERT_TRUE(running.started());

  {
    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    // Two parents at node 2: Algorithm A would abort on this in-tree.
    client.send_all("{\"release\": 0, \"nodes\": 3, "
                    "\"edges\": [[0, 2], [1, 2]]}\n");
    const auto refused = client.read_lines(1);
    ASSERT_EQ(refused.size(), 1u);
    EXPECT_EQ(refused[0],
              "{\"error\": \"policy 'alg-a/general' needs every job to be "
              "an out-forest (Section 5)\"}");
    client.send_all("{\"release\": 0, \"parents\": [-1, 0, 0]}\n");
    const auto ok = client.read_lines(1);
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_NE(ok[0].find("\"job_id\": 0"), std::string::npos) << ok[0];
  }

  running.stop();
  EXPECT_EQ(running.server().jobs_submitted(), 1);
  const auto& counters = running.server().registry().counters();
  const auto refused = counters.find("serve.refused_jobs");
  ASSERT_NE(refused, counters.end());
  EXPECT_EQ(refused->second.value(), 1);

  // Only the accepted job reached the journal.
  serve::JournalReadResult read;
  std::string error;
  ASSERT_TRUE(serve::ReadJournal(journal, &read, &error)) << error;
  int job_records = 0;
  for (const serve::JournalRecord& record : read.records) {
    if (record.type == serve::JournalRecord::Type::kJob) ++job_records;
  }
  EXPECT_EQ(job_records, 1);
  std::remove(journal.c_str());
}

TEST(ServeIntegration, StartRefusesAMachineCountThePolicyCannotUse) {
  serve::ServeOptions options;  // alg-a/general needs alpha = 4 | m
  options.listen = "127.0.0.1:0";
  options.m = 6;
  serve::ScheduleServer server(options,
                               MakePolicy(options.policy, options.seed));
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_EQ(error,
            "policy 'alg-a/general' needs alpha = 4 to divide m (Section 5), "
            "got m = 6");
}

// ---- protocol unit surface ----

TEST(ServeProtocol, ParsesBothDagSpellings) {
  std::string error;
  const auto parents = serve::ParseSubmitRequest(
      "{\"id\": \"t\", \"release\": 7, \"parents\": [-1, 0, 0, 2]}", &error);
  ASSERT_TRUE(parents.has_value()) << error;
  EXPECT_EQ(parents->tag, "t");
  EXPECT_EQ(parents->release, 7);
  EXPECT_EQ(parents->dag.node_count(), 4);
  EXPECT_TRUE(IsOutForest(parents->dag));

  const auto edges = serve::ParseSubmitRequest(
      "{\"nodes\": 4, \"edges\": [[0, 1], [0, 2], [1, 3], [2, 3]]}", &error);
  ASSERT_TRUE(edges.has_value()) << error;
  EXPECT_EQ(edges->release, 0);
  EXPECT_EQ(edges->dag.node_count(), 4);
  EXPECT_FALSE(IsOutForest(edges->dag));  // diamond: two parents at 3
}

TEST(ServeProtocol, RejectsMalformedLinesWithBytePositions) {
  const char* cases[] = {
      "",                                            // not an object
      "[1, 2]",                                      // not an object
      "{\"release\": 0}",                            // no DAG spelling
      "{\"parents\": []}",                           // empty parents
      "{\"parents\": [-1, 2]}",                      // parent id >= child
      "{\"parents\": [0]}",                          // self/forward parent
      "{\"nodes\": 0, \"edges\": []}",               // nodes < 1
      "{\"nodes\": 2, \"edges\": [[1, 0]]}",         // edge not topological
      "{\"nodes\": 2, \"edges\": [[0, 5]]}",         // edge out of range
      "{\"release\": 0, \"parents\": [-1]} junk",    // trailing bytes
      "{\"frobnicate\": 1}",                         // unknown key
      "{\"release\": \"zero\", \"parents\": [-1]}",  // non-integer release
  };
  for (const char* text : cases) {
    std::string error;
    const auto request = serve::ParseSubmitRequest(text, &error);
    EXPECT_FALSE(request.has_value()) << text;
    EXPECT_NE(error.find("at byte"), std::string::npos)
        << text << " -> " << error;
  }
  // "nodes" with no edges is a legal antichain job.
  std::string error;
  const auto antichain = serve::ParseSubmitRequest("{\"nodes\": 2}", &error);
  ASSERT_TRUE(antichain.has_value()) << error;
  EXPECT_EQ(antichain->dag.node_count(), 2);
}

TEST(ServeProtocol, ReplyAndHttpFormatting) {
  EXPECT_EQ(serve::FormatFinishedReply(3, "my-job", 7, 12, 5),
            "{\"job_id\": 3, \"id\": \"my-job\", \"release\": 7, "
            "\"finish\": 12, \"flow\": 5}\n");
  EXPECT_EQ(serve::FormatFinishedReply(0, "", 0, 2, 2),
            "{\"job_id\": 0, \"release\": 0, \"finish\": 2, \"flow\": 2}\n");
  EXPECT_EQ(serve::FormatErrorReply("boom"), "{\"error\": \"boom\"}\n");
  const std::string response =
      serve::FormatHttpResponse(200, "text/plain", "ok\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n\r\nok\n"),
            std::string::npos);
}

}  // namespace
}  // namespace otsched
