#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/assert.h"
#include "common/fnv.h"
#include "serve/protocol.h"

namespace otsched::serve {
namespace {

volatile std::sig_atomic_t* g_stop_flag = nullptr;

void StopSignalHandler(int) {
  if (g_stop_flag != nullptr) *g_stop_flag = 1;
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

bool InstallStopSignalHandlers(volatile std::sig_atomic_t* flag) {
  g_stop_flag = flag;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = StopSignalHandler;
  sigemptyset(&action.sa_mask);
  return sigaction(SIGTERM, &action, nullptr) == 0 &&
         sigaction(SIGINT, &action, nullptr) == 0;
}

ScheduleServer::ScheduleServer(ServeOptions options,
                               std::unique_ptr<Scheduler> scheduler)
    : options_(std::move(options)),
      scheduler_(std::move(scheduler)),
      driver_(options_.m, *scheduler_, RunContext(FlowOnlyOptions())) {
  OTSCHED_CHECK(scheduler_ != nullptr, "serve: null scheduler");
  OTSCHED_CHECK(options_.chunk_slots >= 1);
}

ScheduleServer::~ScheduleServer() {
  for (Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

JournalSnapshot ScheduleServer::snapshot_now() const {
  JournalSnapshot snapshot;
  snapshot.slot = driver_.now();
  snapshot.jobs_submitted = jobs_submitted_;
  snapshot.jobs_finished = jobs_finished_;
  snapshot.total_work = total_submitted_work_;
  snapshot.total_flow = total_flow_;
  snapshot.max_flow = max_flow_;
  return snapshot;
}

bool ScheduleServer::replay_journal(std::string* error) {
  JournalReadResult journal;
  if (!ReadJournal(options_.recover_path, &journal, error)) return false;
  const JournalOpen& open = journal.records.front().open;
  if (open.policy != options_.policy || open.m != options_.m ||
      open.seed != static_cast<std::int64_t>(options_.seed)) {
    if (error != nullptr) {
      *error = "journal '" + options_.recover_path +
               "' identity mismatch: written by policy=" + open.policy +
               " m=" + std::to_string(open.m) +
               " seed=" + std::to_string(open.seed) +
               ", daemon runs policy=" + options_.policy +
               " m=" + std::to_string(options_.m) +
               " seed=" + std::to_string(options_.seed);
    }
    return false;
  }

  std::size_t next = 1;
  if (next < journal.records.size() &&
      journal.records[next].type == JournalRecord::Type::kSnapshot) {
    // Base snapshot (the rotated form): warm-start instead of replaying
    // the truncated history.
    const JournalSnapshot& snap = journal.records[next].snapshot;
    if (!scheduler_->supports_warm_start()) {
      if (error != nullptr) {
        *error = "journal '" + options_.recover_path +
                 "' has a base snapshot but policy '" + options_.policy +
                 "' is stateful (no warm start): it cannot have written it";
      }
      return false;
    }
    driver_.warm_start(snap.slot);
    id_base_ = snap.jobs_submitted;
    jobs_submitted_ = snap.jobs_submitted;
    jobs_finished_ = snap.jobs_finished;
    total_submitted_work_ = snap.total_work;
    total_flow_ = snap.total_flow;
    max_flow_ = snap.max_flow;
    last_journaled_slot_ = snap.slot;
    ++next;
  }

  std::int64_t replayed_jobs = 0;
  for (; next < journal.records.size(); ++next) {
    const JournalRecord& record = journal.records[next];
    switch (record.type) {
      case JournalRecord::Type::kJob: {
        if (record.job.id != jobs_submitted_) {
          if (error != nullptr) {
            *error = "journal '" + options_.recover_path +
                     "': job record has id " + std::to_string(record.job.id) +
                     ", expected " + std::to_string(jobs_submitted_) +
                     " (wire ids must be dense)";
          }
          return false;
        }
        Dag::Builder builder(static_cast<NodeId>(record.job.nodes));
        for (const auto& [from, to] : record.job.edges) {
          builder.add_edge(static_cast<NodeId>(from),
                           static_cast<NodeId>(to));
        }
        Dag dag = std::move(builder).build();
        const std::string refusal =
            PolicyJobError(*spec_, dag, record.job.release);
        if (!refusal.empty()) {
          if (error != nullptr) {
            *error = "journal '" + options_.recover_path + "': job " +
                     std::to_string(record.job.id) + " is refused: " +
                     refusal;
          }
          return false;
        }
        if (record.job.release < driver_.now()) {
          if (error != nullptr) {
            *error = "journal '" + options_.recover_path + "': job " +
                     std::to_string(record.job.id) + " released at slot " +
                     std::to_string(record.job.release) +
                     ", already replayed past it (slot " +
                     std::to_string(driver_.now()) + ")";
          }
          return false;
        }
        admit_job(std::move(dag), record.job.release, record.job.tag);
        ++replayed_jobs;
        break;
      }
      case JournalRecord::Type::kAdvance: {
        // advance(n) budgets n ITERATIONS, and an iteration fast-forwards
        // across idle stretches — advance(target - now) can overshoot the
        // journaled slot.  Single-iteration steps walk the exact slot
        // sequence the live daemon walked (tick ≡ batch, per the
        // driver-equivalence gate), so now() lands on every adv boundary.
        const Time target = record.advance.slot;
        while (driver_.now() < target) {
          if (driver_.advance(1) == 0) break;
        }
        if (driver_.now() != target) {
          if (error != nullptr) {
            *error = "journal '" + options_.recover_path +
                     "': replay diverged — journal advances to slot " +
                     std::to_string(target) + " but the driver reached " +
                     std::to_string(driver_.now());
          }
          return false;
        }
        deliver_finished();
        last_journaled_slot_ = target;
        break;
      }
      case JournalRecord::Type::kSnapshot: {
        deliver_finished();
        const JournalSnapshot& snap = record.snapshot;
        if (snap.slot != driver_.now() ||
            snap.jobs_submitted != jobs_submitted_ ||
            snap.jobs_finished != jobs_finished_) {
          if (error != nullptr) {
            *error = "journal '" + options_.recover_path +
                     "': snapshot disagrees with the replayed state "
                     "(snapshot slot=" + std::to_string(snap.slot) +
                     " jobs=" + std::to_string(snap.jobs_submitted) +
                     " finished=" + std::to_string(snap.jobs_finished) +
                     ", replay slot=" + std::to_string(driver_.now()) +
                     " jobs=" + std::to_string(jobs_submitted_) +
                     " finished=" + std::to_string(jobs_finished_) + ")";
          }
          return false;
        }
        break;
      }
      case JournalRecord::Type::kOpen:
        break;  // unreachable: ReadJournal rejects a duplicate header
    }
  }
  deliver_finished();
  refresh_metrics();
  registry_.counter("serve.recovered_jobs").set(replayed_jobs);
  registry_.counter("serve.recovered_replies").set(0);

  recovered_valid_bytes_ = journal.valid_bytes;
  recovered_records_ = static_cast<std::int64_t>(journal.records.size());
  recovered_torn_tail_ = journal.torn_tail;
  recovery_summary_ =
      "recovered " + std::to_string(replayed_jobs) + " jobs (" +
      std::to_string(parked_replies_.size()) + " finished replies parked, " +
      std::to_string(pending_tags_.size()) +
      " in flight) through slot " + std::to_string(driver_.now()) +
      " from '" + options_.recover_path + "'";
  if (journal.torn_tail) {
    recovery_summary_ += " — dropped torn tail (" + journal.tail_error + ")";
  }
  return true;
}

bool ScheduleServer::open_journal(std::string* error) {
  const bool wants_snapshots =
      options_.journal_rotate || options_.snapshot_every > 0;
  if (options_.journal_path.empty()) {
    if (wants_snapshots) {
      if (error != nullptr) {
        *error = "--journal-rotate / --snapshot-every need --journal";
      }
      return false;
    }
    return true;
  }
  if (wants_snapshots && !scheduler_->supports_warm_start()) {
    if (error != nullptr) {
      *error = "policy '" + options_.policy +
               "' is stateful: snapshot-truncated journals would lose its "
               "decision state (full-journal replay still works; rotation "
               "needs a warm-startable policy such as fifo/first-ready)";
    }
    return false;
  }
  const bool recovering = !options_.recover_path.empty();
  if (recovering && recovered_torn_tail_) {
    // Drop the torn bytes so new records append to the valid prefix —
    // leaving them would read as interior corruption next recovery.
    if (::truncate(options_.journal_path.c_str(), recovered_valid_bytes_) !=
        0) {
      if (error != nullptr) {
        *error = "cannot truncate torn tail of '" + options_.journal_path +
                 "': " + strerror(errno);
      }
      return false;
    }
  }
  std::string journal_error;
  journal_ = JournalWriter::Open(options_.journal_path, &journal_error);
  if (journal_ == nullptr) {
    if (error != nullptr) *error = journal_error;
    return false;
  }
  if (recovering) {
    journal_->note_existing_records(recovered_records_);
  } else {
    if (journal_->bytes_committed() > 0) {
      if (error != nullptr) {
        *error = "journal '" + options_.journal_path + "' already holds " +
                 std::to_string(journal_->bytes_committed()) +
                 " bytes; pass --recover " + options_.journal_path +
                 " to resume it, or remove the file";
      }
      return false;
    }
    journal_->append(
        JournalOpen{options_.policy, options_.m,
                    static_cast<std::int64_t>(options_.seed)});
    if (!journal_->commit(&journal_error)) {
      if (error != nullptr) *error = journal_error;
      return false;
    }
  }
  last_snapshot_records_ = journal_->records_committed();
  registry_.counter("serve.journal_records")
      .set(journal_->records_committed());
  registry_.counter("serve.journal_bytes").set(journal_->bytes_committed());
  return true;
}

bool ScheduleServer::start(std::string* error) {
  spec_ = FindPolicy(options_.policy);
  const std::string refusal =
      spec_ == nullptr ? "unknown policy '" + options_.policy + "'"
                       : PolicyError(*spec_, options_.m);
  if (!refusal.empty()) {
    if (error != nullptr) *error = refusal;
    return false;
  }
  // Flag coherence first, before the (possibly long) replay: appended
  // records must extend the history they follow.
  if (!options_.recover_path.empty() && !options_.journal_path.empty() &&
      options_.recover_path != options_.journal_path) {
    if (error != nullptr) {
      *error = "--journal must name the same file as --recover: appended "
               "records must extend the history they follow";
    }
    return false;
  }
  if (!options_.recover_path.empty() && !replay_journal(error)) return false;
  if (!open_journal(error)) return false;

  const std::string& listen = options_.listen;
  if (listen.rfind("unix:", 0) == 0) {
    const std::string path = listen.substr(5);
    if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error != nullptr) *error = "bad unix socket path '" + path + "'";
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
      return false;
    }
    ::unlink(path.c_str());  // stale socket from a previous run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = "bind " + path + ": " + strerror(errno);
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    unix_path_ = path;
    address_ = listen;
  } else {
    const std::size_t colon = listen.rfind(':');
    if (colon == std::string::npos) {
      if (error != nullptr) {
        *error = "bad listen address '" + listen +
                 "' (want host:port or unix:/path)";
      }
      return false;
    }
    const std::string host = listen.substr(0, colon);
    const std::string port_text = listen.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port_text.empty() || port < 0 ||
        port > 65535) {
      if (error != nullptr) *error = "bad port '" + port_text + "'";
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad host '" + host + "'";
      return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = "bind " + listen + ": " + strerror(errno);
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    address_ = host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 64) != 0 || !SetNonBlocking(listen_fd_)) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!unix_path_.empty()) {
      ::unlink(unix_path_.c_str());
      unix_path_.clear();
    }
    return false;
  }

  // The /metrics manifest: the stream is the daemon's "instance".
  const std::string instance = "serve:" + address_;
  registry_.set_manifest("instance", instance);
  registry_.set_manifest("instance_hash",
                         Hex16(Fnv1a(kFnvOffset, instance)));
  registry_.set_manifest("jobs", jobs_submitted_);
  registry_.set_manifest("total_work", total_submitted_work_);
  registry_.set_manifest("policy", options_.policy);
  registry_.set_manifest("m", static_cast<std::int64_t>(options_.m));
  registry_.set_manifest("seed", static_cast<std::int64_t>(options_.seed));
  registry_.set_manifest("max_horizon", std::int64_t{0});
  registry_.set_manifest("clairvoyance", "policy-default");
  registry_.set_manifest("record", "flow-only");
  registry_.set_manifest("faults", "none");
  return true;
}

void ScheduleServer::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0) {
      std::size_t live = 0;
      for (const Connection& conn : connections_) {
        if (conn.fd >= 0) ++live;
      }
      if (live >= options_.max_connections) {
        // Shed at the door: one structured reply, then close.  The
        // short reply fits any socket buffer, so the blocking-free
        // send is best-effort but reliable in practice.
        registry_.counter("serve.rejected_connections").inc();
        const std::string reply = FormatErrorReply(
            "overloaded: connection limit (" +
            std::to_string(options_.max_connections) + ") reached");
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
    }
    registry_.counter("serve.connections").inc();
    // Reuse a dead slot so pending_ job -> connection indices stay
    // stable for the connections that are still alive.
    Connection* slot = nullptr;
    for (Connection& conn : connections_) {
      if (conn.fd < 0) {
        slot = &conn;
        break;
      }
    }
    if (slot == nullptr) {
      connections_.push_back(Connection{});
      slot = &connections_.back();
    }
    const std::uint64_t generation = slot->generation;  // bumped at close
    *slot = Connection{};
    slot->generation = generation;
    slot->fd = fd;
    slot->last_activity = std::chrono::steady_clock::now();
  }
}

void ScheduleServer::read_connection(Connection& conn) {
  char buffer[65536];
  bool progressed = false;
  while (true) {
    // Stop pulling once the buffer already holds an over-cap line:
    // process_lines() will reject it, and reading further just feeds a
    // no-newline flood.  The bound is cap + one chunk.
    if (!conn.discard_input && conn.in.size() > options_.max_line_bytes) {
      break;
    }
    const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      // Rejected connections drain-and-discard: closing with unread
      // bytes would RST the socket and destroy the error reply in
      // flight, so the remaining input is read and dropped (memory
      // O(1)) until the peer half-closes.  Discarded bytes do NOT
      // count as activity — a flood cannot outlive the idle deadline.
      if (!conn.discard_input) {
        conn.in.append(buffer, static_cast<std::size_t>(got));
        progressed = true;
      }
      if (got < static_cast<ssize_t>(sizeof(buffer))) break;
      continue;
    }
    if (got == 0) {
      conn.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.eof = true;  // hard error: flush what we owe, then close
    break;
  }
  if (progressed) conn.last_activity = std::chrono::steady_clock::now();
  if (!conn.discard_input) process_lines(conn);
}

bool ScheduleServer::adopt_recovered(Connection& conn,
                                     const std::string& tag) {
  const auto parked = parked_replies_.find(tag);
  if (parked != parked_replies_.end()) {
    // The job finished in a previous life (or after its submitter
    // died); the resubmission is the claim ticket, not a new job.
    conn.out += parked->second;
    parked_replies_.erase(parked);
    registry_.counter("serve.recovered_replies").inc();
    return true;
  }
  const auto pending = pending_tags_.find(tag);
  if (pending != pending_tags_.end()) {
    PendingJob& owner = pending_[static_cast<std::size_t>(pending->second)];
    if (owner.conn == PendingJob::kNoConn) {
      // In flight with no owner (recovered from the journal, or the
      // submitter died): adopt it — the reply lands here when it
      // finishes, under the original wire id.
      owner.conn = static_cast<std::size_t>(&conn - connections_.data());
      owner.generation = conn.generation;
      ++conn.pending_jobs;
      registry_.counter("serve.recovered_replies").inc();
    } else {
      // In flight and owned: a retried (or chaos-duplicated) line.
      // Drop it — exactly one reply per tag, to the original owner.
      registry_.counter("serve.duplicate_submissions").inc();
    }
    return true;
  }
  return false;
}

JobId ScheduleServer::admit_job(Dag dag, Time release,
                                const std::string& tag) {
  const NodeId nodes = dag.node_count();
  if (journal_ != nullptr) {
    JournalJob record;
    record.id = jobs_submitted_;
    record.release = release;
    record.tag = tag;
    record.nodes = nodes;
    record.edges.reserve(static_cast<std::size_t>(dag.edge_count()));
    for (NodeId v = 0; v < nodes; ++v) {
      for (const NodeId child : dag.children(v)) {
        record.edges.emplace_back(v, child);
      }
    }
    journal_->append(record);
  }
  total_submitted_work_ += nodes;
  const JobId id = driver_.submit(
      Job(std::move(dag), release,
          tag.empty() ? "job-" + std::to_string(jobs_submitted_) : tag));
  OTSCHED_CHECK(static_cast<std::size_t>(id) == pending_.size());
  pending_.push_back(PendingJob{PendingJob::kNoConn, 0, tag});
  if (!tag.empty()) pending_tags_[tag] = id;
  ++jobs_submitted_;
  return id;
}

void ScheduleServer::process_lines(Connection& conn) {
  if (!conn.classified && conn.in.size() >= 4) {
    conn.http = conn.in.compare(0, 4, "GET ") == 0;
    conn.classified = true;
  }
  if (!conn.classified && conn.eof && !conn.in.empty()) {
    conn.classified = true;  // short non-HTTP scrap: treat as NDJSON
  }
  if (!conn.classified) return;

  if (conn.http) {
    handle_http(conn);
    return;
  }

  std::size_t start = 0;
  while (true) {
    const std::size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) {
      // No complete line: bounded as long as the partial tail stays
      // under the cap.  Past it, this is the no-newline flood — reject
      // with a structured reply and close (docs/SERVING.md, "Overload
      // behavior"); the peer's owed replies still flush first.
      if (conn.in.size() - start > options_.max_line_bytes) {
        reject_oversized_line(conn);
        return;
      }
      break;
    }
    if (newline - start > options_.max_line_bytes) {
      reject_oversized_line(conn);
      return;
    }
    std::string line = conn.in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (stopping()) {
      conn.out += FormatErrorReply("draining: submission rejected");
      continue;
    }
    std::string error;
    std::optional<SubmitRequest> request = ParseSubmitRequest(line, &error);
    if (!request.has_value()) {
      registry_.counter("serve.parse_errors").inc();
      conn.out += FormatErrorReply(error);
      continue;
    }
    // A release in the simulated past cannot be honored (those slots are
    // gone); clamp up to the current slot.  The reply echoes the
    // effective release, keeping offline replays faithful.
    const Time release = std::max(request->release, driver_.now());
    // A job the policy would abort on (Algorithm A and a DAG that is not
    // an out-forest) is refused with a reply; nothing is journaled.
    const std::string refusal =
        PolicyJobError(*spec_, request->dag, release);
    if (!refusal.empty()) {
      registry_.counter("serve.refused_jobs").inc();
      conn.out += FormatErrorReply(refusal);
      continue;
    }
    // A resubmission of a pending tag (its owner died, the daemon did,
    // or the line was duplicated in flight): deliver the parked reply,
    // adopt the in-flight job, or drop the duplicate — never run a
    // second copy.
    if (!request->tag.empty() && adopt_recovered(conn, request->tag)) {
      continue;
    }
    if (options_.max_pending_jobs > 0 &&
        jobs_submitted_ - jobs_finished_ >= options_.max_pending_jobs) {
      // Watermark shedding: an explicit overloaded reply instead of
      // silent queue growth.  Nothing is journaled for a shed job.
      registry_.counter("serve.overloaded_replies").inc();
      conn.out += FormatErrorReply(
          "overloaded: " +
          std::to_string(jobs_submitted_ - jobs_finished_) +
          " jobs pending (watermark " +
          std::to_string(options_.max_pending_jobs) + "); resubmit later");
      continue;
    }
    const JobId id =
        admit_job(std::move(request->dag), release, request->tag);
    pending_[static_cast<std::size_t>(id)].conn =
        static_cast<std::size_t>(&conn - connections_.data());
    pending_[static_cast<std::size_t>(id)].generation = conn.generation;
    ++conn.pending_jobs;
  }
  conn.in.erase(0, start);
}

void ScheduleServer::reject_oversized_line(Connection& conn) {
  registry_.counter("serve.rejected_lines").inc();
  conn.out += FormatErrorReply(
      "line exceeds max length (" +
      std::to_string(options_.max_line_bytes) + " bytes): connection closed");
  conn.in.clear();
  conn.in.shrink_to_fit();
  // Switch to drain-and-discard: the error reply and any owed replies
  // flush, then flush_writes() half-closes the write side; the read
  // side keeps draining (dropping bytes) until the peer's EOF so the
  // final close never carries unread data.
  conn.discard_input = true;
}

void ScheduleServer::handle_http(Connection& conn) {
  const std::size_t line_end = conn.in.find("\r\n");
  if (line_end == std::string::npos) {
    if (conn.in.size() > options_.max_line_bytes) {
      // An HTTP request head has the same line cap as a submission.
      reject_oversized_line(conn);
      return;
    }
    if (!conn.eof) return;  // need more
  }
  const std::string request_line = conn.in.substr(
      0, line_end == std::string::npos ? conn.in.size() : line_end);
  // "GET <path> HTTP/1.x" — the path is the second token.
  const std::size_t path_begin = request_line.find(' ');
  std::string path;
  if (path_begin != std::string::npos) {
    const std::size_t path_end = request_line.find(' ', path_begin + 1);
    path = request_line.substr(path_begin + 1,
                               path_end == std::string::npos
                                   ? std::string::npos
                                   : path_end - path_begin - 1);
  }
  registry_.counter("serve.http_requests").inc();
  if (path == "/metrics") {
    conn.out += FormatHttpResponse(200, "application/json",
                                   registry_.to_json_cached());
  } else if (path == "/healthz") {
    conn.out += FormatHttpResponse(200, "text/plain", "ok\n");
  } else {
    conn.out += FormatHttpResponse(404, "text/plain",
                                   "not found (try /metrics or /healthz)\n");
  }
  conn.eof = true;  // one-shot: close once the response is flushed
  conn.in.clear();
}

void ScheduleServer::deliver_finished() {
  const std::vector<SimDriver::FinishedJob> finished =
      driver_.take_finished();
  for (const SimDriver::FinishedJob& job : finished) {
    PendingJob& owner = pending_[static_cast<std::size_t>(job.job)];
    const JobId wire_id = static_cast<JobId>(id_base_) + job.job;
    total_flow_ += job.flow;
    max_flow_ = std::max(max_flow_, job.flow);
    bool delivered = false;
    if (owner.conn != PendingJob::kNoConn) {
      Connection& conn = connections_[owner.conn];
      // The generation pin: a reused slot holds a DIFFERENT client;
      // its replies must never leak there.
      if (conn.fd >= 0 && !conn.http &&
          conn.generation == owner.generation) {
        conn.out += FormatFinishedReply(wire_id, owner.tag, job.release,
                                        job.finish, job.flow);
        --conn.pending_jobs;
        delivered = true;
      }
    }
    if (!owner.tag.empty()) pending_tags_.erase(owner.tag);
    if (!delivered && !owner.tag.empty()) {
      // Recovery replay, or the submitter died: park the reply for a
      // reconnecting client to claim by resubmitting the tag.
      parked_replies_[owner.tag] = FormatFinishedReply(
          wire_id, owner.tag, job.release, job.finish, job.flow);
      registry_.counter("serve.replies_parked").inc();
    }
    owner.conn = PendingJob::kNoConn;
    owner.generation = 0;
    owner.tag.clear();
    owner.tag.shrink_to_fit();
    ++jobs_finished_;
  }
  driver_.retire_finished();
}

void ScheduleServer::refresh_metrics() {
  registry_.counter("serve.jobs_submitted").set(jobs_submitted_);
  registry_.counter("serve.jobs_finished").set(jobs_finished_);
  registry_.gauge("serve.pending_work")
      .set(static_cast<double>(driver_.pending_work()));
  registry_.gauge("serve.arena_nodes")
      .set(static_cast<double>(driver_.arena_nodes()));
  registry_.gauge("serve.slot").set(static_cast<double>(driver_.now()));
  registry_.set_manifest("jobs", jobs_submitted_);
  registry_.set_manifest("total_work", total_submitted_work_);
}

void ScheduleServer::tick_driver() {
  bool activity = false;
  if (!driver_.idle()) {
    // While draining, run to completion in one go; otherwise a bounded
    // chunk so fresh submissions interleave with progress.
    const Time budget = stopping() ? std::numeric_limits<Time>::max()
                                   : options_.chunk_slots;
    activity = driver_.advance(budget) > 0;
  }
  const std::int64_t finished_before = jobs_finished_;
  deliver_finished();
  if (journal_ != nullptr && driver_.now() != last_journaled_slot_) {
    journal_->append(JournalAdvance{driver_.now()});
    last_journaled_slot_ = driver_.now();
  }
  if (activity || jobs_finished_ != finished_before) refresh_metrics();
}

void ScheduleServer::commit_journal() {
  if (journal_ == nullptr || !journal_->dirty()) return;
  std::string error;
  // A journal the daemon cannot persist means acknowledgements it
  // cannot back — dying loudly beats lying about durability.
  OTSCHED_CHECK(journal_->commit(&error), "serve: " << error);
  registry_.counter("serve.journal_records")
      .set(journal_->records_committed());
  registry_.counter("serve.journal_bytes").set(journal_->bytes_committed());
}

void ScheduleServer::maybe_snapshot() {
  if (journal_ == nullptr ||
      (!options_.journal_rotate && options_.snapshot_every <= 0)) {
    return;
  }
  // Quiescent point: everything accepted has finished (which empties
  // pending_tags_), every reply has been handed over (none parked,
  // none buffered) — the whole history is summarized by its counters,
  // so a base snapshot loses nothing a future recovery needs.
  if (!driver_.idle() || jobs_finished_ != jobs_submitted_ ||
      !parked_replies_.empty()) {
    return;
  }
  for (const Connection& conn : connections_) {
    if (conn.fd >= 0 && !conn.out.empty()) return;
  }
  const std::int64_t cadence =
      options_.snapshot_every > 0 ? options_.snapshot_every : 256;
  if (journal_->records_committed() - last_snapshot_records_ < cadence) {
    return;
  }
  std::string error;
  const JournalOpen open{options_.policy, options_.m,
                         static_cast<std::int64_t>(options_.seed)};
  if (options_.journal_rotate) {
    OTSCHED_CHECK(journal_->rotate(open, snapshot_now(), &error),
                  "serve: journal rotation failed: " << error);
    registry_.counter("serve.journal_rotations").inc();
  } else {
    journal_->append_snapshot(snapshot_now());
    OTSCHED_CHECK(journal_->commit(&error), "serve: " << error);
    registry_.counter("serve.journal_snapshots").inc();
  }
  last_snapshot_records_ = journal_->records_committed();
  registry_.counter("serve.journal_records")
      .set(journal_->records_committed());
  registry_.counter("serve.journal_bytes").set(journal_->bytes_committed());
}

void ScheduleServer::flush_writes() {
  for (Connection& conn : connections_) {
    if (conn.fd < 0) continue;
    bool progressed = false;
    while (!conn.out.empty()) {
      const ssize_t wrote =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (wrote > 0) {
        conn.out.erase(0, static_cast<std::size_t>(wrote));
        progressed = true;
        continue;
      }
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_connection(conn);  // peer went away; park its replies
      break;
    }
    if (conn.fd < 0) continue;
    if (progressed) conn.last_activity = std::chrono::steady_clock::now();
    if (conn.out.empty() && conn.discard_input && conn.pending_jobs == 0 &&
        !conn.write_shut) {
      // Rejected connection, everything owed delivered: FIN the write
      // side so the peer sees end-of-replies; keep draining its input.
      ::shutdown(conn.fd, SHUT_WR);
      conn.write_shut = true;
    }
    if (conn.out.empty() && conn.eof && conn.pending_jobs == 0) {
      close_connection(conn);
    }
  }
}

void ScheduleServer::enforce_idle_deadline() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (Connection& conn : connections_) {
    if (conn.fd < 0 || now - conn.last_activity < limit) continue;
    // A connection that owes us nothing and is owed nothing is stuck,
    // not waiting; a rejected (discarding) one is closed regardless —
    // its reply went out with the FIN long ago.
    if (conn.discard_input ||
        (conn.out.empty() && conn.pending_jobs == 0)) {
      registry_.counter("serve.idle_timeouts").inc();
      close_connection(conn);
    }
  }
}

void ScheduleServer::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  if (conn.pending_jobs > 0) {
    // The peer died still owed replies: orphan its in-flight jobs
    // (their tags stay in pending_tags_) so a reconnecting client can
    // resubmit the tags and claim them.
    const std::size_t index =
        static_cast<std::size_t>(&conn - connections_.data());
    for (PendingJob& owner : pending_) {
      if (owner.conn != index || owner.generation != conn.generation) {
        continue;
      }
      owner.conn = PendingJob::kNoConn;
      owner.generation = 0;
    }
  }
  const std::uint64_t generation = conn.generation + 1;
  conn = Connection{};
  conn.generation = generation;
}

void ScheduleServer::run() {
  OTSCHED_CHECK(listen_fd_ >= 0, "run() before start()");
  bool listener_open = true;
  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;  // connections_ index; npos = listener

  while (true) {
    if (halt_ != 0) return;  // simulated crash: abandon everything

    const bool draining = stopping();
    if (draining && listener_open) {
      ::close(listen_fd_);
      if (!unix_path_.empty()) {
        ::unlink(unix_path_.c_str());
        unix_path_.clear();
      }
      listener_open = false;
    }

    fds.clear();
    polled.clear();
    if (listener_open) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      polled.push_back(std::string::npos);
    }
    bool writes_pending = false;
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = connections_[c];
      if (conn.fd < 0) continue;
      short events = 0;
      if (!conn.eof && !draining) events |= POLLIN;
      if (!conn.out.empty()) {
        events |= POLLOUT;
        writes_pending = true;
      }
      if (events == 0) continue;
      fds.push_back(pollfd{conn.fd, events, 0});
      polled.push_back(c);
    }

    if (draining && driver_.idle() && !writes_pending) break;

    const int timeout =
        (!driver_.idle() || draining) ? 0 : options_.idle_poll_ms;
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (ready > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (polled[i] == std::string::npos) {
          accept_ready();
          continue;
        }
        Connection& conn = connections_[polled[i]];
        if (conn.fd < 0) continue;
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !draining && !conn.eof) {
          read_connection(conn);
        } else if ((fds[i].revents & (POLLHUP | POLLERR)) != 0 &&
                   conn.out.empty()) {
          close_connection(conn);
        }
      }
    }

    tick_driver();
    // Durability ordering: the records behind this cycle's work hit
    // the disk BEFORE flush_writes() lets any reply out, so a client
    // can never hold an acknowledgement the journal does not.
    commit_journal();
    maybe_snapshot();
    flush_writes();
    enforce_idle_deadline();
  }

  // Drained: nothing left to write, close whatever connections remain.
  for (Connection& conn : connections_) close_connection(conn);
}

}  // namespace otsched::serve
