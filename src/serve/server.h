// The `otsched serve` streaming scheduler daemon (docs/SERVING.md).
//
// ScheduleServer is a single-threaded poll() loop over one listening
// socket (TCP "host:port", port 0 for ephemeral, or "unix:/path") and
// its accepted connections, multiplexing two protocols by the first
// bytes of each connection:
//
//   * "GET ..."  — a one-shot HTTP request: /metrics serves the
//     registry's cached JSON (MetricsRegistry::to_json_cached — idle
//     daemons re-serve the same bytes without re-rendering), /healthz
//     serves "ok"; the response closes the connection.
//   * anything else — a newline-delimited JSON job stream (one
//     serve::SubmitRequest per line); each finished job is answered
//     with one reply line on the connection that submitted it.
//
// Between poll rounds the loop ticks the embedded SimDriver
// (advance/take_finished/retire_finished), so simulation progress
// interleaves with I/O and memory stays proportional to the live width
// of the stream: finished jobs are retired as soon as their replies are
// written.  A requested release in the simulated past is clamped up to
// the driver's current slot (the effective release is echoed in the
// reply, so an offline replay of the effective stream reproduces the
// daemon's flows bit-identically — the serve integration test's check).
//
// Durability (docs/SERVING.md, "Durability & recovery"): with
// ServeOptions::journal_path set, every accepted submission and slot
// advance is appended to a write-ahead journal (serve/journal.h) and
// fsynced BEFORE the cycle's replies flush, so any reply a client ever
// saw is backed by a durable record; recover_path replays such a
// journal through the driver before the listener binds, re-deriving
// the crashed daemon's state bit-identically.  Replies whose owning
// connection is gone (it died, or the whole process did) are parked by
// client tag; a client that reconnects and resubmits its unacknowledged
// tags gets the parked reply (already finished) or adopts the in-flight
// job (exactly-once per unique tag, at-least-once otherwise).
//
// Overload behavior (docs/SERVING.md): oversized lines, the connection
// ceiling, the pending-jobs watermark, and idle deadlines each shed
// load with a structured error reply and a metric rather than letting
// memory grow.
//
// Shutdown: request_stop() (the CLI wires SIGTERM/SIGINT to it through
// a sig_atomic_t flag polled via ServeOptions::stop_flag) closes the
// listener, drains all submitted work, flushes the remaining replies,
// and returns from run() — exit 0.  halt() abandons the loop without
// draining — the crash-recovery tests' stand-in for SIGKILL.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "sched/registry.h"
#include "serve/journal.h"
#include "sim/driver.h"

namespace otsched::serve {

struct ServeOptions {
  /// "host:port" (port 0 = ephemeral) or "unix:/path/to.sock".
  std::string listen = "127.0.0.1:0";
  int m = 4;
  /// Registry name of the policy driving the embedded SimDriver (the
  /// default general Algorithm A pipeline is the reason the daemon
  /// exists; see docs/SERVING.md on its guess-and-double restarts).
  std::string policy = "alg-a/general";
  std::uint64_t seed = 0;
  /// Slots simulated per poll round while work is pending.  Small
  /// enough that new submissions interleave with progress, large enough
  /// to amortize the loop; correctness does not depend on it.
  Time chunk_slots = 128;
  /// Poll timeout while idle (no pending work), milliseconds.
  int idle_poll_ms = 50;
  /// Longest accepted submission (or HTTP request-head) line, bytes.  A
  /// connection whose unconsumed input exceeds this without a newline —
  /// the degenerate no-newline flood — gets one structured error reply
  /// and is closed, so per-connection memory is bounded by this cap
  /// plus one read chunk (counted in serve.rejected_lines).
  std::size_t max_line_bytes = 1 << 20;
  /// Write-ahead journal path ("" = no journaling).  With recovery, it
  /// must be the SAME file as recover_path (the appended records must
  /// follow the replayed history they extend).
  std::string journal_path;
  /// Journal to replay before the listener binds ("" = cold start).
  std::string recover_path;
  /// Truncate the journal to open-header + base snapshot at quiescent
  /// points (requires journal_path and a warm-startable policy).
  bool journal_rotate = false;
  /// Append a snapshot record at the first quiescent point after this
  /// many journal records (0 = only the rotation default).  Requires a
  /// warm-startable policy.
  std::int64_t snapshot_every = 0;
  /// Live-connection ceiling (0 = unlimited): connections past it get
  /// one "overloaded" error reply and are closed
  /// (serve.rejected_connections).
  std::size_t max_connections = 0;
  /// Pending (accepted, unfinished) jobs watermark (0 = unlimited):
  /// submissions past it get an explicit "overloaded" error reply and
  /// are NOT accepted (serve.overloaded_replies).
  std::int64_t max_pending_jobs = 0;
  /// Idle deadline, milliseconds (0 = none): a connection that makes no
  /// read/write progress for this long while owing nothing and being
  /// owed nothing is closed (serve.idle_timeouts); a rejected
  /// (discarding) connection is closed unconditionally at the deadline.
  int idle_timeout_ms = 0;
  /// Optional external stop flag (e.g. set by a SIGTERM handler); the
  /// loop treats a nonzero value exactly like request_stop().
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

class ScheduleServer {
 public:
  /// The scheduler is owned; construct it via MakePolicy(options.policy)
  /// or hand in any Scheduler for tests.
  ScheduleServer(ServeOptions options, std::unique_ptr<Scheduler> scheduler);
  ~ScheduleServer();

  ScheduleServer(const ScheduleServer&) = delete;
  ScheduleServer& operator=(const ScheduleServer&) = delete;

  /// Asks the registry's precondition gate (PolicyError) whether
  /// options.policy can run on options.m, replays recover_path (if set),
  /// opens the journal (if set), binds and listens — in that order, so a
  /// refused policy, a recovery or a journal problem is diagnosed before
  /// the address is taken.  Returns false (with a
  /// diagnostic in `error`) on any failure; no partial state survives
  /// a bind failure.
  bool start(std::string* error);

  /// The bound address ("127.0.0.1:41873" with the ephemeral port
  /// resolved, or the unix path).  Valid after start().
  const std::string& address() const { return address_; }

  /// One-line human summary of what recovery replayed (empty when no
  /// recovery ran) — the CLI prints it before "listening on".
  const std::string& recovery_summary() const { return recovery_summary_; }

  /// Serves until request_stop() / *stop_flag, then drains and returns.
  void run();

  /// Signals run() to stop accepting, drain, and return.  Callable from
  /// another thread (the in-process integration test's shape).
  void request_stop() { stop_ = 1; }

  /// Signals run() to return IMMEDIATELY: no drain, no reply flush, no
  /// journal commit beyond what already happened.  The recovery tests'
  /// in-process stand-in for SIGKILL (thread-safe like request_stop).
  void halt() { halt_ = 1; }

  /// The daemon's metrics registry (the /metrics document).
  const MetricsRegistry& registry() const { return registry_; }

  std::int64_t jobs_submitted() const { return jobs_submitted_; }
  std::int64_t jobs_finished() const { return jobs_finished_; }

  /// Arena node slots backing the embedded driver (live + free-listed)
  /// — the bounded-memory probe the integration test asserts on.
  std::int64_t arena_nodes() const { return driver_.arena_nodes(); }

 private:
  struct Connection {
    int fd = -1;
    std::string in;        // unconsumed request bytes
    std::string out;       // unwritten reply bytes
    bool http = false;     // classified as a one-shot HTTP request
    bool classified = false;
    bool eof = false;      // peer half-closed; flush replies then close
    // Rejected (oversized-line) connection: further input is read and
    // dropped, and once the error reply and any owed replies have
    // flushed the write side is shut down (FIN) — closing outright
    // with unread bytes in the kernel buffer would RST the socket and
    // destroy the reply in flight.
    bool discard_input = false;
    bool write_shut = false;  // shutdown(SHUT_WR) already issued
    std::int64_t pending_jobs = 0;  // submitted, not yet replied
    // Distinguishes successive tenants of a reused slot: a finished
    // job's reply is only delivered when the slot's generation still
    // matches the submitter's, never to a newer client that happens to
    // occupy the same index.
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point last_activity{};
  };

  /// pending_[driver job id] -> who gets the reply.  conn == kNoConn
  /// marks an orphan (recovered from the journal, or its submitter
  /// died): the finished reply parks under the job's tag instead.
  struct PendingJob {
    static constexpr std::size_t kNoConn = static_cast<std::size_t>(-1);
    std::size_t conn = kNoConn;
    std::uint64_t generation = 0;
    std::string tag;
  };

  void accept_ready();
  void read_connection(Connection& conn);
  void process_lines(Connection& conn);
  void reject_oversized_line(Connection& conn);
  void handle_http(Connection& conn);
  void tick_driver();
  /// take_finished + reply/park + retire — shared by the live tick and
  /// the recovery replay.
  void deliver_finished();
  void commit_journal();
  void maybe_snapshot();
  void enforce_idle_deadline();
  void flush_writes();
  void close_connection(Connection& conn);
  bool replay_journal(std::string* error);
  bool open_journal(std::string* error);
  /// Consumes one submission whose tag is already known: parked reply
  /// delivered, orphaned in-flight job adopted, or live duplicate
  /// dropped.  False = not matched (a genuinely new submission).
  bool adopt_recovered(Connection& conn, const std::string& tag);
  /// Accepted-job bookkeeping shared by live submission and replay.
  JobId admit_job(Dag dag, Time release, const std::string& tag);
  JournalSnapshot snapshot_now() const;
  void refresh_metrics();
  bool stopping() const {
    return stop_ != 0 ||
           (options_.stop_flag != nullptr && *options_.stop_flag != 0);
  }

  ServeOptions options_;
  std::unique_ptr<Scheduler> scheduler_;
  /// options_.policy's registry entry, set by start(): its per-job gate
  /// (PolicyJobError) refuses submissions and journal records the policy
  /// would abort on.
  const PolicySpec* spec_ = nullptr;
  MetricsRegistry registry_;
  SimDriver driver_;

  int listen_fd_ = -1;
  std::string address_;
  std::string unix_path_;  // unlinked on close when non-empty
  std::vector<Connection> connections_;
  std::vector<PendingJob> pending_;  // parallel to driver job ids

  std::unique_ptr<JournalWriter> journal_;
  /// Wire job id = id_base_ + driver id: a recovery that warm-starts
  /// from a rotated journal rebuilds a fresh driver (ids from 0) while
  /// the wire ids stay dense across the daemon's whole lineage.
  std::int64_t id_base_ = 0;
  Time last_journaled_slot_ = 0;
  std::int64_t last_snapshot_records_ = 0;
  std::string recovery_summary_;
  // Replay leftovers open_journal() needs: how much of the recovered
  // file was valid (a torn tail is truncated away before appending).
  std::int64_t recovered_valid_bytes_ = 0;
  std::int64_t recovered_records_ = 0;
  bool recovered_torn_tail_ = false;
  /// tag -> reply line, for finished jobs whose submitter is gone.
  std::unordered_map<std::string, std::string> parked_replies_;
  /// tag -> driver job id for EVERY tagged unfinished job — the dedup
  /// index.  A resubmitted pending tag is idempotent: it adopts the job
  /// when its owner is gone (reconnect after a drop or a recovery) and
  /// is ignored as a duplicate when the owner is alive (a retried or
  /// chaos-duplicated line), so a tag never yields two replies.
  std::unordered_map<std::string, JobId> pending_tags_;

  volatile std::sig_atomic_t stop_ = 0;
  volatile std::sig_atomic_t halt_ = 0;
  std::int64_t jobs_submitted_ = 0;
  std::int64_t jobs_finished_ = 0;
  std::int64_t total_submitted_work_ = 0;
  std::int64_t total_flow_ = 0;  // sum of finished flows (snapshots)
  Time max_flow_ = 0;            // the served stream's F_max so far
};

/// Installs `flag` as the target of SIGTERM/SIGINT (handler just sets
/// it) and returns true; the CLI passes the same flag via
/// ServeOptions::stop_flag.
bool InstallStopSignalHandlers(volatile std::sig_atomic_t* flag);

}  // namespace otsched::serve
