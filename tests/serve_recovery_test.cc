// Crash-safety suite for the `otsched serve` daemon (docs/SERVING.md,
// "Durability & recovery" / "Overload behavior"):
//
//   * the write-ahead journal round-trips and tolerates a torn tail but
//     rejects interior corruption (the SweepCheckpoint contract);
//   * a daemon SIGKILLed mid-stream (halt(), the in-process stand-in)
//     and recovered with --recover answers the SAME reply bytes as an
//     uninterrupted run — parked replies and orphan adoption included;
//   * rotation truncates the journal at quiescent points without
//     breaking dense wire ids, and stateful policies refuse it;
//   * the shedding bounds (pending-jobs watermark, connection ceiling,
//     idle deadline) fail explicitly instead of growing memory.
#include "gtest_compat.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sched/registry.h"
#include "serve/journal.h"
#include "serve/server.h"

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

  /// Reads until the peer closes.
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

class RunningServer {
 public:
  explicit RunningServer(serve::ServeOptions options) {
    server_.emplace(options, MakePolicy(options.policy, options.seed));
    error_.clear();
    started_ = server_->start(&error_);
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

  /// The in-process SIGKILL: the loop returns without draining,
  /// flushing, or committing anything further.
  void crash() {
    if (thread_.joinable()) {
      server_->halt();
      thread_.join();
    }
  }

  serve::ScheduleServer& server() { return *server_; }
  bool started() const { return started_; }
  const std::string& error() const { return error_; }

 private:
  std::optional<serve::ScheduleServer> server_;
  std::thread thread_;
  bool started_ = false;
  std::string error_;
};

std::string TempPath(const std::string& stem) {
  const char* dir = ::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "-" +
         std::to_string(::getpid()) + ".ndjson";
}


std::int64_t CounterValue(const MetricsRegistry& registry,
                          const std::string& name) {
  const auto& counters = registry.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? -1 : it->second.value();
}

/// Spaced-release chain jobs: job k is a 3-node chain released at 8k,
/// finishing (span 3 on m >= 1) long before job k+1 arrives, so finish
/// order equals submission order and reply streams diff cleanly.
std::string SpacedJobLine(int k) {
  return "{\"id\": \"tag-" + std::to_string(k) + "\", \"release\": " +
         std::to_string(8 * k) + ", \"parents\": [-1, 0, 1]}\n";
}

std::string TagOf(const std::string& reply) {
  const std::size_t key = reply.find("\"id\": \"");
  if (key == std::string::npos) return "";
  const std::size_t begin = key + 7;
  return reply.substr(begin, reply.find('"', begin) - begin);
}

// ---- journal unit surface ----

TEST(ServeJournal, FramedRecordsRoundTrip) {
  serve::JournalJob job;
  job.id = 7;
  job.release = 40;
  job.tag = "tag-7";
  job.nodes = 3;
  job.edges = {{0, 1}, {1, 2}};

  serve::JournalSnapshot snap;
  snap.slot = 99;
  snap.jobs_submitted = 8;
  snap.jobs_finished = 8;
  snap.total_work = 24;
  snap.total_flow = 30;
  snap.max_flow = 5;
  snap.offset = 1234;
  snap.records = 17;

  const std::string lines =
      serve::EncodeOpen({"fifo/first-ready", 2, 11}) + serve::EncodeJob(job) +
      serve::EncodeAdvance({55}) + serve::EncodeSnapshot(snap);

  std::istringstream stream(lines);
  std::string line;
  std::vector<serve::JournalRecord> records;
  while (std::getline(stream, line)) {
    serve::JournalRecord record;
    std::string error;
    ASSERT_TRUE(serve::ParseJournalLine(line, &record, &error))
        << line << " -> " << error;
    records.push_back(record);
  }
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, serve::JournalRecord::Type::kOpen);
  EXPECT_EQ(records[0].open.policy, "fifo/first-ready");
  EXPECT_EQ(records[0].open.m, 2);
  EXPECT_EQ(records[0].open.seed, 11);
  EXPECT_EQ(records[1].type, serve::JournalRecord::Type::kJob);
  EXPECT_EQ(records[1].job.id, 7);
  EXPECT_EQ(records[1].job.release, 40);
  EXPECT_EQ(records[1].job.tag, "tag-7");
  EXPECT_EQ(records[1].job.nodes, 3);
  EXPECT_EQ(records[1].job.edges, job.edges);
  EXPECT_EQ(records[2].type, serve::JournalRecord::Type::kAdvance);
  EXPECT_EQ(records[2].advance.slot, 55);
  EXPECT_EQ(records[3].type, serve::JournalRecord::Type::kSnapshot);
  EXPECT_EQ(records[3].snapshot.slot, 99);
  EXPECT_EQ(records[3].snapshot.jobs_submitted, 8);
  EXPECT_EQ(records[3].snapshot.total_flow, 30);
  EXPECT_EQ(records[3].snapshot.offset, 1234);
  EXPECT_EQ(records[3].snapshot.records, 17);
}

TEST(ServeJournal, RejectsCorruptFramesWithDiagnostics) {
  std::string line = serve::EncodeAdvance({55});
  line.pop_back();  // strip the newline for line-level parsing

  // Flip one payload byte: the CRC must catch it.
  std::string flipped = line;
  flipped[flipped.size() - 2] ^= 1;
  serve::JournalRecord record;
  std::string error;
  EXPECT_FALSE(serve::ParseJournalLine(flipped, &record, &error));
  EXPECT_NE(error.find("crc"), std::string::npos) << error;

  // Truncated line (torn write): also a parse failure at line level.
  EXPECT_FALSE(serve::ParseJournalLine(line.substr(0, line.size() / 2),
                                       &record, &error));

  // Bad frame shapes.
  EXPECT_FALSE(serve::ParseJournalLine("nonsense", &record, &error));
  EXPECT_FALSE(serve::ParseJournalLine("", &record, &error));
  EXPECT_FALSE(serve::ParseJournalLine(
      "zzzzzzzz {\"type\": \"adv\", \"slot\": 55}", &record, &error));
}

TEST(ServeJournal, ReadToleratesTornTailButNotInteriorCorruption) {
  const std::string path = TempPath("journal-tail");
  const std::string open = serve::EncodeOpen({"fifo/first-ready", 2, 0});
  serve::JournalJob job;
  job.id = 0;
  job.release = 0;
  job.nodes = 1;
  const std::string good = open + serve::EncodeJob(job) +
                           serve::EncodeAdvance({4});

  {
    // Torn tail: a half-written line after the valid prefix.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good << "deadbeef {\"type\": \"adv\", \"slo";
  }
  serve::JournalReadResult result;
  std::string error;
  ASSERT_TRUE(serve::ReadJournal(path, &result, &error)) << error;
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.valid_bytes, static_cast<std::int64_t>(good.size()));

  {
    // Interior corruption: the same bad line FOLLOWED by a good one.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << open << "deadbeef {\"type\": \"adv\", \"slo\n"
        << serve::EncodeJob(job);
  }
  EXPECT_FALSE(serve::ReadJournal(path, &result, &error));
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;

  {
    // A journal must begin with its open header.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << serve::EncodeJob(job);
  }
  EXPECT_FALSE(serve::ReadJournal(path, &result, &error));

  std::remove(path.c_str());
}

// ---- crash / recover / diff ----

TEST(ServeRecovery, CrashedAndRecoveredStreamMatchesUninterrupted) {
  constexpr int kJobs = 10000;
  constexpr int kCrashAfter = 5000;  // jobs submitted before the crash
  constexpr int kAckedBeforeCrash = 2500;  // replies read before the crash

  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;

  // Reference: one uninterrupted run over all 60 jobs.
  std::vector<std::string> reference;
  {
    RunningServer running(options);
    ASSERT_TRUE(running.started()) << running.error();
    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    std::string batch;
    for (int k = 0; k < kJobs; ++k) batch += SpacedJobLine(k);
    client.send_all(batch);
    reference = client.read_lines(kJobs);
    running.stop();
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(kJobs));
    EXPECT_EQ(running.server().jobs_finished(), kJobs);
  }

  const std::string journal = TempPath("journal-crash");
  std::remove(journal.c_str());

  // Crash run: journal on, 30 jobs streamed, only 15 replies read, then
  // the in-process SIGKILL.
  std::vector<std::string> crashed;
  {
    serve::ServeOptions journaled = options;
    journaled.journal_path = journal;
    RunningServer running(journaled);
    ASSERT_TRUE(running.started()) << running.error();
    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    std::string batch;
    for (int k = 0; k < kCrashAfter; ++k) batch += SpacedJobLine(k);
    client.send_all(batch);
    for (std::string& line : client.read_lines(kAckedBeforeCrash)) {
      crashed.push_back(std::move(line));
    }
    ASSERT_EQ(crashed.size(),
              static_cast<std::size_t>(kAckedBeforeCrash));
    running.crash();
  }

  // Recover into a fresh daemon appending to the same journal.  The
  // client resubmits its unacknowledged tags in original order (the
  // serve_client.py --reconnect contract), then streams the rest.
  {
    serve::ServeOptions recovering = options;
    recovering.journal_path = journal;
    recovering.recover_path = journal;
    RunningServer running(recovering);
    ASSERT_TRUE(running.started()) << running.error();
    EXPECT_NE(running.server().recovery_summary().find("recovered"),
              std::string::npos)
        << running.server().recovery_summary();
    EXPECT_EQ(running.server().jobs_submitted(), kCrashAfter);

    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    std::string batch;
    for (int k = kAckedBeforeCrash; k < kCrashAfter; ++k) {
      batch += SpacedJobLine(k);  // resubmitted unacked tags
    }
    for (int k = kCrashAfter; k < kJobs; ++k) {
      batch += SpacedJobLine(k);  // the rest of the stream
    }
    client.send_all(batch);
    for (std::string& line : client.read_lines(kJobs - kAckedBeforeCrash)) {
      crashed.push_back(std::move(line));
    }
    running.stop();

    ASSERT_EQ(crashed.size(), static_cast<std::size_t>(kJobs));
    EXPECT_EQ(running.server().jobs_submitted(), kJobs);
    EXPECT_EQ(running.server().jobs_finished(), kJobs);
    // /metrics modulo journal/recovery counters: the serving counters
    // agree with the uninterrupted run's.
    EXPECT_EQ(CounterValue(running.server().registry(),
                           "serve.jobs_submitted"), kJobs);
    EXPECT_EQ(CounterValue(running.server().registry(),
                           "serve.jobs_finished"), kJobs);
    EXPECT_GT(CounterValue(running.server().registry(),
                           "serve.recovered_jobs"), 0);
  }

  // Byte-identical replies: every line of the crashed+recovered stream
  // equals the uninterrupted run's (parked-reply delivery may reorder
  // around adopted in-flight jobs, so compare in wire-id order).
  std::vector<std::string> want = reference;
  std::vector<std::string> got = crashed;
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got);

  std::remove(journal.c_str());
}

TEST(ServeRecovery, TornJournalTailIsDroppedAndTruncated) {
  const std::string path = TempPath("journal-torn");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    serve::JournalJob job;
    job.id = 0;
    job.release = 0;
    job.tag = "tag-0";
    job.nodes = 2;
    job.edges = {{0, 1}};
    out << serve::EncodeOpen({"fifo/first-ready", 2, 0})
        << serve::EncodeJob(job) << serve::EncodeAdvance({2})
        << "00000000 {\"type\": \"adv\", \"sl";  // the torn fsync batch
  }

  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.journal_path = path;
  options.recover_path = path;
  RunningServer running(options);
  ASSERT_TRUE(running.started()) << running.error();
  EXPECT_NE(running.server().recovery_summary().find("torn tail"),
            std::string::npos)
      << running.server().recovery_summary();
  EXPECT_EQ(running.server().jobs_submitted(), 1);

  // The resubmitted tag claims the recovered job instead of duplicating.
  TestClient client(running.server().address());
  ASSERT_TRUE(client.connected());
  client.send_all("{\"id\": \"tag-0\", \"release\": 0, \"nodes\": 2, "
                  "\"edges\": [[0, 1]]}\n");
  const auto replies = client.read_lines(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(TagOf(replies[0]), "tag-0");
  EXPECT_NE(replies[0].find("\"job_id\": 0"), std::string::npos)
      << replies[0];
  running.stop();
  EXPECT_EQ(running.server().jobs_submitted(), 1);

  // The torn bytes were truncated away: a second recovery of the same
  // (appended-to) file parses cleanly end to end.
  serve::JournalReadResult result;
  std::string error;
  ASSERT_TRUE(serve::ReadJournal(path, &result, &error)) << error;
  EXPECT_FALSE(result.torn_tail);
  std::remove(path.c_str());
}

TEST(ServeRecovery, RefusesForeignAndCorruptJournals) {
  const std::string path = TempPath("journal-foreign");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << serve::EncodeOpen({"fifo/first-ready", 8, 0});  // m = 8
  }
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;  // daemon runs m = 2: identity mismatch
  options.recover_path = path;
  {
    RunningServer running(options);
    EXPECT_FALSE(running.started());
    EXPECT_NE(running.error().find("identity mismatch"), std::string::npos)
        << running.error();
  }

  // --journal (without --recover) refuses to clobber a non-empty file.
  {
    serve::ServeOptions clobber = options;
    clobber.recover_path.clear();
    clobber.journal_path = path;
    RunningServer running(clobber);
    EXPECT_FALSE(running.started());
    EXPECT_NE(running.error().find("--recover"), std::string::npos)
        << running.error();
  }

  // --journal with a DIFFERENT file than --recover is refused.
  {
    serve::ServeOptions split = options;
    split.journal_path = path + ".other";
    RunningServer running(split);
    EXPECT_FALSE(running.started());
    EXPECT_NE(running.error().find("same file"), std::string::npos)
        << running.error();
  }
  std::remove(path.c_str());
}

TEST(ServeRecovery, RefusesAJournaledJobThePolicyWouldAbortOn) {
  // A journal whose second job is the 3-node in-tree: a daemon without
  // the per-job gate accepted and journaled it before Algorithm A
  // aborted on it.  Recovery names the record instead of aborting again.
  const std::string path = TempPath("journal-poison");
  {
    serve::JournalJob chain;
    chain.id = 0;
    chain.release = 0;
    chain.nodes = 2;
    chain.edges = {{0, 1}};
    serve::JournalJob in_tree;
    in_tree.id = 1;
    in_tree.release = 0;
    in_tree.nodes = 3;
    in_tree.edges = {{0, 2}, {1, 2}};
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << serve::EncodeOpen({"alg-a/general", 4, 0})
        << serve::EncodeJob(chain) << serve::EncodeJob(in_tree);
  }
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "alg-a/general";
  options.m = 4;
  options.recover_path = path;
  RunningServer running(options);
  EXPECT_FALSE(running.started());
  EXPECT_EQ(running.error(),
            "journal '" + path +
                "': job 1 is refused: policy 'alg-a/general' needs every "
                "job to be an out-forest (Section 5)");
  std::remove(path.c_str());
}

TEST(ServeRecovery, RotationTruncatesAndKeepsWireIdsDense) {
  const std::string path = TempPath("journal-rotate");
  std::remove(path.c_str());

  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.journal_path = path;
  options.journal_rotate = true;
  options.snapshot_every = 4;  // rotate aggressively for the test
  {
    RunningServer running(options);
    ASSERT_TRUE(running.started()) << running.error();
    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    std::string batch;
    for (int k = 0; k < 8; ++k) batch += SpacedJobLine(k);
    client.send_all(batch);
    ASSERT_EQ(client.read_lines(8).size(), 8u);
    // All replies delivered: the daemon is quiescent, so within a few
    // poll cycles it must rotate the journal down to header + snapshot.
    // (Watch the file, not the registry — the server thread owns that.)
    bool rotated = false;
    for (int spin = 0; spin < 200 && !rotated; ++spin) {
      serve::JournalReadResult peek;
      std::string peek_error;
      rotated = serve::ReadJournal(path, &peek, &peek_error) &&
                peek.records.size() == 2;
      if (!rotated) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(rotated) << "journal never rotated";
    running.stop();
    EXPECT_GT(CounterValue(running.server().registry(),
                           "serve.journal_rotations"), 0);
  }

  // The rotated file is exactly open header + base snapshot.
  serve::JournalReadResult rotated;
  std::string error;
  ASSERT_TRUE(serve::ReadJournal(path, &rotated, &error)) << error;
  ASSERT_EQ(rotated.records.size(), 2u);
  EXPECT_EQ(rotated.records[1].type, serve::JournalRecord::Type::kSnapshot);
  EXPECT_EQ(rotated.records[1].snapshot.jobs_submitted, 8);
  EXPECT_EQ(rotated.records[1].snapshot.jobs_finished, 8);

  // Recovery from the rotated journal warm-starts and keeps wire ids
  // dense: the first post-recovery job is job_id 8.
  serve::ServeOptions recovering = options;
  recovering.recover_path = path;
  RunningServer running(recovering);
  ASSERT_TRUE(running.started()) << running.error();
  EXPECT_EQ(running.server().jobs_submitted(), 8);
  TestClient client(running.server().address());
  ASSERT_TRUE(client.connected());
  client.send_all("{\"id\": \"tag-8\", \"release\": 0, "
                  "\"parents\": [-1, 0, 1]}\n");
  const auto replies = client.read_lines(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_NE(replies[0].find("\"job_id\": 8"), std::string::npos)
      << replies[0];
  running.stop();
  std::remove(path.c_str());
}

TEST(ServeRecovery, StatefulPolicyRefusesSnapshotsButReplaysFully) {
  const std::string path = TempPath("journal-stateful");
  std::remove(path.c_str());

  // fifo/random consumes RNG state across slots: rotation would lose
  // it, so --journal-rotate is refused up front...
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/random";
  options.m = 2;
  options.journal_path = path;
  options.journal_rotate = true;
  {
    RunningServer running(options);
    EXPECT_FALSE(running.started());
    EXPECT_NE(running.error().find("warm"), std::string::npos)
        << running.error();
  }

  // ...but a plain journal + full replay is still exact for it.
  options.journal_rotate = false;
  {
    RunningServer running(options);
    ASSERT_TRUE(running.started()) << running.error();
    TestClient client(running.server().address());
    ASSERT_TRUE(client.connected());
    std::string batch;
    for (int k = 0; k < 6; ++k) batch += SpacedJobLine(k);
    client.send_all(batch);
    ASSERT_EQ(client.read_lines(6).size(), 6u);
    running.crash();
  }
  serve::ServeOptions recovering = options;
  recovering.recover_path = path;
  RunningServer running(recovering);
  ASSERT_TRUE(running.started()) << running.error();
  EXPECT_EQ(running.server().jobs_submitted(), 6);
  EXPECT_EQ(running.server().jobs_finished(), 6);
  running.stop();
  std::remove(path.c_str());
}

// ---- overload shedding ----

TEST(ServeOverload, PendingJobsWatermarkShedsExplicitly) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.max_pending_jobs = 4;
  RunningServer running(options);
  ASSERT_TRUE(running.started()) << running.error();

  TestClient client(running.server().address());
  ASSERT_TRUE(client.connected());
  // One batch = one poll cycle: 4 accepted, 6 shed before any finish.
  std::string batch;
  for (int k = 0; k < 10; ++k) {
    batch += "{\"id\": \"w-" + std::to_string(k) +
             "\", \"release\": 0, \"parents\": [-1, 0, 1]}\n";
  }
  client.send_all(batch);
  const auto replies = client.read_lines(10);
  ASSERT_EQ(replies.size(), 10u);
  int overloaded = 0, finished = 0;
  for (const std::string& reply : replies) {
    if (reply.find("\"error\"") != std::string::npos) {
      EXPECT_NE(reply.find("overloaded"), std::string::npos) << reply;
      EXPECT_NE(reply.find("watermark 4"), std::string::npos) << reply;
      ++overloaded;
    } else {
      ++finished;
    }
  }
  EXPECT_EQ(overloaded, 6);
  EXPECT_EQ(finished, 4);
  running.stop();
  EXPECT_EQ(CounterValue(running.server().registry(),
                         "serve.overloaded_replies"), 6);
  EXPECT_EQ(running.server().jobs_submitted(), 4);
}

TEST(ServeOverload, ConnectionCeilingRejectsExtraClients) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.max_connections = 1;
  RunningServer running(options);
  ASSERT_TRUE(running.started()) << running.error();

  TestClient first(running.server().address());
  ASSERT_TRUE(first.connected());
  first.send_all("{\"release\": 0, \"parents\": [-1]}\n");
  ASSERT_EQ(first.read_lines(1).size(), 1u);  // first client is in

  TestClient second(running.server().address());
  ASSERT_TRUE(second.connected());
  const std::string response = second.read_to_eof();
  EXPECT_NE(response.find("overloaded: connection limit (1)"),
            std::string::npos)
      << response;

  // The admitted client keeps working at the ceiling.
  first.send_all("{\"release\": 0, \"parents\": [-1, 0]}\n");
  const auto more = first.read_lines(1);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_NE(more[0].find("\"flow\": 2"), std::string::npos) << more[0];

  running.stop();
  EXPECT_EQ(CounterValue(running.server().registry(),
                         "serve.rejected_connections"), 1);
}

TEST(ServeOverload, IdleDeadlineClosesStuckConnections) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;
  options.idle_timeout_ms = 60;
  options.idle_poll_ms = 10;
  RunningServer running(options);
  ASSERT_TRUE(running.started()) << running.error();

  // A connection that dribbles half a line and goes silent is closed at
  // the deadline instead of pinning a socket + buffer forever.
  TestClient stuck(running.server().address());
  ASSERT_TRUE(stuck.connected());
  stuck.send_all("{\"release\": 0, ");  // no newline, then silence
  const std::string response = stuck.read_to_eof();  // blocks until close
  EXPECT_EQ(response, "");

  running.stop();
  EXPECT_EQ(CounterValue(running.server().registry(),
                         "serve.idle_timeouts"), 1);
  EXPECT_EQ(running.server().jobs_submitted(), 0);
}

TEST(ServeRecovery, HealthyJournaledRunMatchesPlainRunByteForByte) {
  serve::ServeOptions options;
  options.listen = "127.0.0.1:0";
  options.policy = "fifo/first-ready";
  options.m = 2;

  auto stream_all = [&](const serve::ServeOptions& opts) {
    RunningServer running(opts);
    EXPECT_TRUE(running.started()) << running.error();
    TestClient client(running.server().address());
    EXPECT_TRUE(client.connected());
    std::string batch;
    for (int k = 0; k < 12; ++k) batch += SpacedJobLine(k);
    client.send_all(batch);
    std::vector<std::string> replies = client.read_lines(12);
    running.stop();
    return replies;
  };

  const std::vector<std::string> plain = stream_all(options);

  const std::string path = TempPath("journal-healthy");
  std::remove(path.c_str());
  serve::ServeOptions journaled = options;
  journaled.journal_path = path;
  const std::vector<std::string> logged = stream_all(journaled);

  // Journaling is invisible on the wire: byte-identical replies.
  EXPECT_EQ(plain, logged);
  // And the journal holds the whole history: header + 12 jobs + advs.
  serve::JournalReadResult result;
  std::string error;
  ASSERT_TRUE(serve::ReadJournal(path, &result, &error)) << error;
  int jobs = 0;
  for (const serve::JournalRecord& record : result.records) {
    jobs += record.type == serve::JournalRecord::Type::kJob ? 1 : 0;
  }
  EXPECT_EQ(jobs, 12);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace otsched
