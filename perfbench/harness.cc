// In-process helper of the benchmark (see NOTES.md).  Subcommands:
//
//   gen-inst --workload W --seed S --jobs N --out F
//       writes the first N jobs of the workload's stream as an .inst file
//       and prints their realised load.
//   load --inst F --reps K
//       times TryLoadInstance K times (untraced; the offline setup_s).
//   replay --workload W --seed S --policy P --m M --log F
//       rebuilds the closed-loop stream a daemon served from the client's
//       reply log (effective releases, in job-id order), runs it offline
//       through Simulate with the same policy, m and seed, and checks
//       every flow bit for bit (the replay contract in docs/SERVING.md).
//       It also runs the requested releases of the same jobs through
//       Simulate: that max flow does not depend on the daemon's timing.
//   trace --workload W --seed S [--inst F] [--jobs N] [--conns C]
//         [--journal F] [--spans F] [--workers N]
//       the traced run: replays the workload's work in-process through
//       the layers' public functions, untraced and traced in turn (twice
//       each), and prints the per-layer metrics as one JSON object.
//
// Spans carry a name, start, end, parent and job tag; they are kept in
// memory and written to --spans when the run ends.  A layer's self time
// is the duration of its spans minus the part covered by child spans.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/alg_a_full.h"
#include "gen.h"
#include "job/serialize.h"
#include "opt/lower_bounds.h"
#include "sched/registry.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "sim/batch_runner.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/job_faults.h"
#include "sim/observers.h"

namespace {

using Clock = std::chrono::steady_clock;
using otsched::Time;

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index in the same thread's log, -1 = root
  std::int64_t tag;     // job id / cell index, -1 = none
};

struct ThreadLog {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

class Tracer {
 public:
  bool enabled = false;

  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->thread = static_cast<int>(logs_.size()) - 1;
    }
    return *log;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  const std::vector<std::unique_ptr<ThreadLog>>& logs() const { return logs_; }

  /// Drops every recorded span (between runs; no span may be open).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& log : logs_) log->spans.clear();
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

Tracer g_tracer;

class Scope {
 public:
  explicit Scope(const char* name, std::int64_t tag = -1) {
    if (!g_tracer.enabled) return;
    log_ = &g_tracer.local();
    index_ = static_cast<std::int32_t>(log_->spans.size());
    const std::int32_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->spans.push_back({name, g_tracer.now_ns(), 0, parent, tag});
    log_->open.push_back(index_);
  }
  ~Scope() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(index_)].end_ns = g_tracer.now_ns();
    log_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLog* log_ = nullptr;
  std::int32_t index_ = 0;
};

struct SpanTotals {
  std::map<std::string, double> self_s;  // by span name
  std::map<std::string, std::int64_t> count;
  double root_s = 0;        // summed duration of every thread's roots
  double uncovered_s = 0;   // self time of non-layer ("workload") spans
};

SpanTotals Summarize() {
  SpanTotals totals;
  for (const auto& log : g_tracer.logs()) {
    const std::vector<Span>& spans = log->spans;
    std::vector<std::int64_t> child(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        child[static_cast<std::size_t>(spans[i].parent)] +=
            spans[i].end_ns - spans[i].start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur = 1e-9 * static_cast<double>(spans[i].end_ns -
                                                    spans[i].start_ns);
      const double self = dur - 1e-9 * static_cast<double>(child[i]);
      const std::string name = spans[i].name;
      totals.self_s[name] += self;
      totals.count[name] += 1;
      if (spans[i].parent < 0) totals.root_s += dur;
      if (name == "workload") totals.uncovered_s += self;
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& log : g_tracer.logs()) {
    for (const Span& s : log->spans) {
      std::fprintf(f,
                   "{\"thread\": %d, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"tag\": %lld}\n",
                   log->thread, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.tag));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------- wrapped interfaces

/// Forwards every call to the wrapped policy; times pick/on_arrival.
class TimedScheduler final : public otsched::Scheduler {
 public:
  explicit TimedScheduler(otsched::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool requires_clairvoyance() const override {
    return inner_.requires_clairvoyance();
  }
  bool supports_fluctuating_capacity() const override {
    return inner_.supports_fluctuating_capacity();
  }
  bool supports_job_rollback() const override {
    return inner_.supports_job_rollback();
  }
  bool supports_warm_start() const override {
    return inner_.supports_warm_start();
  }
  void reset(int m, otsched::JobId job_count) override {
    inner_.reset(m, job_count);
  }
  void on_arrival(otsched::JobId id,
                  const otsched::SchedulerView& view) override {
    Scope span("sched.on_arrival", id);
    inner_.on_arrival(id, view);
  }
  void pick(const otsched::SchedulerView& view,
            std::vector<otsched::SubjobRef>& out) override {
    const std::size_t before = out.size();
    {
      Scope span("sched.pick");
      inner_.pick(view, out);
    }
    ++pick_calls;
    picked += static_cast<std::int64_t>(out.size() - before);
  }

  std::int64_t pick_calls = 0;
  std::int64_t picked = 0;

 private:
  otsched::Scheduler& inner_;
};

/// Forwards the hook stream to the wrapped observer; times on_slot_batch.
class TimedObserver final : public otsched::RunObserver {
 public:
  explicit TimedObserver(otsched::RunObserver& inner) : inner_(inner) {}

  void on_run_begin(const otsched::EngineBackend& engine) override {
    inner_.on_run_begin(engine);
  }
  void on_finish(const otsched::SimResult& result) override {
    inner_.on_finish(result);
  }
  bool wants_pick_timing() const override {
    return inner_.wants_pick_timing();
  }
  void on_slot_batch(const otsched::EngineBackend& engine,
                     std::span<const otsched::SlotEvent> events) override {
    Scope span("sim.observer.batch");
    this->events += static_cast<std::int64_t>(events.size());
    inner_.on_slot_batch(engine, events);
  }

  std::int64_t events = 0;

 private:
  otsched::RunObserver& inner_;
};

// -------------------------------------------------------------- helpers

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback = "") {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

perfbench::WorkloadShape ShapeOrDie(const std::string& workload) {
  perfbench::WorkloadShape shape{};
  if (!perfbench::ShapeFor(workload, &shape)) {
    std::fprintf(stderr, "harness: unknown workload '%s'\n", workload.c_str());
    std::exit(2);
  }
  return shape;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

otsched::Dag DagOf(const perfbench::GenJob& job) {
  otsched::Dag::Builder builder(static_cast<otsched::NodeId>(job.nodes));
  for (const auto& [u, v] : job.edges) {
    builder.add_edge(static_cast<otsched::NodeId>(u),
                     static_cast<otsched::NodeId>(v));
  }
  return std::move(builder).build();
}

std::int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                      : 0;
}

/// Restart count and final guess of an Algorithm A policy (0 otherwise).
void AlgAFigures(const otsched::Scheduler& policy, double* restarts,
                 double* guess) {
  if (const auto* alg = dynamic_cast<const otsched::AlgAScheduler*>(&policy)) {
    *restarts = alg->restarts();
    *guess = static_cast<double>(alg->guess());
  }
}

// ----------------------------------------------------------- subcommands

int CmdGenInst(const std::map<std::string, std::string>& flags) {
  const std::string workload = Flag(flags, "--workload");
  const std::string out = Flag(flags, "--out");
  double load = 0;
  const std::string text = perfbench::InstanceText(
      ShapeOrDie(workload), std::strtoull(Flag(flags, "--seed", "1").c_str(),
                                          nullptr, 10),
      std::atoll(Flag(flags, "--jobs", "1000").c_str()), workload, &load);
  std::ofstream file(out);
  file << text;
  if (!file.good()) return 1;
  std::printf("{\"load\": %.6f}\n", load);
  return 0;
}

int CmdLoad(const std::map<std::string, std::string>& flags) {
  const std::string path = Flag(flags, "--inst");
  const int reps = std::max(1, std::atoi(Flag(flags, "--reps", "5").c_str()));
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const std::optional<otsched::Instance> instance =
        otsched::TryLoadInstance(path, &error);
    times.push_back(Since(t0));
    if (!instance.has_value()) {
      std::fprintf(stderr, "harness: %s\n", error.c_str());
      return 1;
    }
  }
  std::printf("{\"load_s\": [");
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::printf("%s%.9f", i > 0 ? ", " : "", times[i]);
  }
  std::printf("], \"bytes\": %lld}\n",
              static_cast<long long>(FileBytes(path)));
  return 0;
}

int CmdReplay(const std::map<std::string, std::string>& flags) {
  const std::string workload = Flag(flags, "--workload");
  const std::uint64_t seed =
      std::strtoull(Flag(flags, "--seed", "1").c_str(), nullptr, 10);
  const std::string policy_name = Flag(flags, "--policy");
  const int m = std::atoi(Flag(flags, "--m", "8").c_str());
  struct Row {
    long long index, job_id, release, finish, flow;
  };
  std::vector<Row> rows;
  {
    std::ifstream log(Flag(flags, "--log"));
    Row row{};
    while (log >> row.index >> row.job_id >> row.release >> row.finish >>
           row.flow) {
      rows.push_back(row);
    }
  }
  const auto n = static_cast<long long>(rows.size());
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.job_id < b.job_id; });
  // The closed phase is a prefix of the daemon's job ids and of the
  // stream: every tag index and job id in [0, n) exactly once.
  std::vector<bool> seen(rows.size(), false);
  for (long long i = 0; i < n; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    if (row.job_id != i || row.index < 0 || row.index >= n ||
        seen[static_cast<std::size_t>(row.index)]) {
      std::printf("{\"ok\": false, \"why\": \"reply log is not a dense "
                  "prefix of the stream\"}\n");
      return 1;
    }
    seen[static_cast<std::size_t>(row.index)] = true;
  }
  perfbench::JobStream stream(ShapeOrDie(workload), seed);
  std::vector<perfbench::GenJob> generated;
  generated.reserve(rows.size());
  for (long long i = 0; i < n; ++i) generated.push_back(stream.next());
  std::vector<otsched::Job> jobs;
  jobs.reserve(rows.size());
  for (const Row& row : rows) {
    jobs.emplace_back(DagOf(generated[static_cast<std::size_t>(row.index)]),
                      row.release);
  }
  const otsched::Instance instance(std::move(jobs), "closed-loop replay");
  std::unique_ptr<otsched::Scheduler> policy =
      otsched::MakePolicy(policy_name, seed);
  if (policy == nullptr) return 2;
  const Clock::time_point t0 = Clock::now();
  const otsched::SimResult result = otsched::Simulate(
      instance, m, *policy, otsched::FlowOnlyOptions());
  const double seconds = Since(t0);
  std::vector<otsched::Job> requested;
  requested.reserve(generated.size());
  for (const perfbench::GenJob& job : generated) {
    requested.emplace_back(DagOf(job), job.release);
  }
  std::unique_ptr<otsched::Scheduler> fresh =
      otsched::MakePolicy(policy_name, seed);
  const otsched::SimResult planned = otsched::Simulate(
      otsched::Instance(std::move(requested), "requested releases"), m,
      *fresh, otsched::FlowOnlyOptions());
  long long mismatches = 0;
  for (long long i = 0; i < n; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    if (result.flows.flow[static_cast<std::size_t>(i)] != row.flow ||
        result.flows.completion[static_cast<std::size_t>(i)] != row.finish) {
      ++mismatches;
    }
  }
  std::printf("{\"ok\": %s, \"jobs\": %lld, \"mismatches\": %lld, "
              "\"max_flow\": %lld, \"requested_max_flow\": %lld, "
              "\"load\": %.6f, \"seconds\": %.6f}\n",
              mismatches == 0 && n > 0 ? "true" : "false", n, mismatches,
              static_cast<long long>(result.flows.max_flow),
              static_cast<long long>(planned.flows.max_flow),
              stream.realised_load(), seconds);
  return mismatches == 0 && n > 0 ? 0 : 1;
}

// ------------------------------------------------------- traced replays

/// Everything a traced replay counts besides span times.
struct Counts {
  std::map<std::string, double> values;
  bool ok = true;
  std::string why;
  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

struct ServeConfig {
  std::uint64_t seed = 1;
  std::string policy;
  int m = 8;
  std::int64_t jobs = 0;
  std::int64_t in_flight = 0;   // connections x window of the live client
  Time chunk = 128;              // otsched serve's default --chunk
  std::string journal;           // "" = no journal
};

/// The daemon's per-connection work, rebuilt from the serve layers'
/// public functions: parse each line, clamp and submit, advance one
/// chunk, journal and commit the cycle, collect, encode and retire the
/// finished jobs — with the live client's in-flight cap.
void ServeReplay(const ServeConfig& config,
                 const std::vector<std::string>& lines, Counts* counts) {
  std::unique_ptr<otsched::Scheduler> policy =
      otsched::MakePolicy(config.policy, config.seed);
  TimedScheduler timed(*policy);
  otsched::Scheduler& scheduler =
      g_tracer.enabled ? static_cast<otsched::Scheduler&>(timed) : *policy;
  otsched::SimDriver driver(config.m, scheduler, otsched::FlowOnlyOptions());

  std::unique_ptr<otsched::serve::JournalWriter> journal;
  std::string error;
  if (!config.journal.empty()) {
    std::remove(config.journal.c_str());
    journal = otsched::serve::JournalWriter::Open(config.journal, &error);
    if (journal == nullptr) {
      counts->fail(error);
      return;
    }
    journal->append(otsched::serve::JournalOpen{
        config.policy, config.m, static_cast<std::int64_t>(config.seed)});
  }

  std::vector<otsched::Job> effective;  // (dag, effective release) by id
  std::vector<Time> flows;
  std::int64_t next = 0, in_flight = 0, finished = 0, commits = 0;
  std::int64_t parsed_bytes = 0, slots = 0;
  Time last_adv = 0;
  while (finished < config.jobs) {
    while (in_flight < config.in_flight && next < config.jobs) {
      const std::string& line = lines[static_cast<std::size_t>(next)];
      std::optional<otsched::serve::SubmitRequest> request;
      {
        Scope span("serve.protocol.parse", next);
        request = otsched::serve::ParseSubmitRequest(line, &error);
      }
      if (!request.has_value()) {
        counts->fail("parse: " + error);
        return;
      }
      parsed_bytes += static_cast<std::int64_t>(line.size());
      const Time release = std::max(request->release, driver.now());
      if (journal == nullptr) {
        effective.emplace_back(request->dag, release);
      } else {
        otsched::serve::JournalJob record;
        record.id = next;
        record.release = release;
        record.tag = request->tag;
        record.nodes = request->dag.node_count();
        for (otsched::NodeId v = 0; v < request->dag.node_count(); ++v) {
          for (const otsched::NodeId child : request->dag.children(v)) {
            record.edges.emplace_back(v, child);
          }
        }
        Scope span("serve.journal.append", next);
        journal->append(record);
      }
      {
        Scope span("sim.driver.submit", next);
        driver.submit(otsched::Job(std::move(request->dag), release));
      }
      ++next;
      ++in_flight;
    }
    {
      Scope span("sim.driver.advance");
      slots += driver.advance(config.chunk);
    }
    std::vector<otsched::SimDriver::FinishedJob> done;
    {
      Scope span("sim.driver.take_finished");
      done = driver.take_finished();
    }
    for (const auto& job : done) {
      Scope span("serve.protocol.encode", job.job);
      otsched::serve::FormatFinishedReply(job.job, "t", job.release,
                                          job.finish, job.flow);
      if (flows.size() <= static_cast<std::size_t>(job.job)) {
        flows.resize(static_cast<std::size_t>(job.job) + 1, -1);
      }
      flows[static_cast<std::size_t>(job.job)] = job.flow;
    }
    if (journal != nullptr && driver.now() != last_adv) {
      Scope span("serve.journal.append");
      journal->append(otsched::serve::JournalAdvance{driver.now()});
      last_adv = driver.now();
    }
    if (journal != nullptr && journal->dirty()) {
      Scope span("serve.journal.commit");
      if (!journal->commit(&error)) {
        counts->fail(error);
        return;
      }
      ++commits;
    }
    {
      Scope span("sim.driver.retire");
      driver.retire_finished();
    }
    finished += static_cast<std::int64_t>(done.size());
    in_flight -= static_cast<std::int64_t>(done.size());
  }
  counts->values["serve.protocol.parse_bytes"] =
      static_cast<double>(parsed_bytes);
  counts->values["sim.driver.slots"] = static_cast<double>(slots);
  counts->values["sched.pick_calls"] = static_cast<double>(timed.pick_calls);
  counts->values["sched.picked"] = static_cast<double>(timed.picked);
  AlgAFigures(*policy, &counts->values["core.alg_a.restarts"],
              &counts->values["core.alg_a.final_guess"]);

  // Offline replay of the served stream through a fresh driver (untimed
  // scheduler: replay_s is the whole replay).  With a journal it is what
  // `serve --recover` does: read the file, then re-drive its records;
  // without one it is the replay-contract check on the effective stream.
  std::vector<Time> replayed(flows.size(), -1);
  if (journal != nullptr) {
    counts->values["serve.journal.commits"] = static_cast<double>(commits);
    counts->values["serve.journal.records"] =
        static_cast<double>(journal->records_committed());
    counts->values["serve.journal.bytes"] =
        static_cast<double>(journal->bytes_committed());
    journal.reset();
    otsched::serve::JournalReadResult read;
    {
      Scope span("serve.journal.read");
      if (!otsched::serve::ReadJournal(config.journal, &read, &error)) {
        counts->fail(error);
        return;
      }
    }
    Scope span("sim.driver.replay");
    std::unique_ptr<otsched::Scheduler> fresh =
        otsched::MakePolicy(config.policy, config.seed);
    otsched::SimDriver again(config.m, *fresh, otsched::FlowOnlyOptions());
    for (const otsched::serve::JournalRecord& record : read.records) {
      if (record.type == otsched::serve::JournalRecord::Type::kJob) {
        otsched::Dag::Builder builder(
            static_cast<otsched::NodeId>(record.job.nodes));
        for (const auto& [u, v] : record.job.edges) {
          builder.add_edge(static_cast<otsched::NodeId>(u),
                           static_cast<otsched::NodeId>(v));
        }
        again.submit(otsched::Job(std::move(builder).build(),
                                  record.job.release));
      } else if (record.type == otsched::serve::JournalRecord::Type::kAdvance) {
        while (again.now() < record.advance.slot) {
          if (again.advance(1) == 0) break;
        }
      }
      for (const auto& job : again.take_finished()) {
        replayed[static_cast<std::size_t>(job.job)] = job.flow;
      }
      again.retire_finished();
    }
  } else {
    Scope span("sim.driver.replay");
    std::unique_ptr<otsched::Scheduler> fresh =
        otsched::MakePolicy(config.policy, config.seed);
    const otsched::Instance instance(std::move(effective), "served stream");
    const otsched::SimResult result = otsched::Simulate(
        instance, config.m, *fresh, otsched::FlowOnlyOptions());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      replayed[i] = result.flows.flow[i];
    }
  }
  if (replayed != flows) counts->fail("offline replay diverged from serving");
  counts->values["max_flow"] =
      flows.empty() ? 0.0
                    : static_cast<double>(
                          *std::max_element(flows.begin(), flows.end()));
}

otsched::SimResult DriveInstance(const otsched::Instance& instance, int m,
                                 otsched::Scheduler& scheduler,
                                 const otsched::RunContext& context,
                                 Time chunk, std::int64_t* slots) {
  otsched::SimDriver driver(m, scheduler, context);
  {
    Scope span("sim.driver.submit");
    driver.submit_all(instance);
  }
  while (!driver.idle()) {
    Scope span("sim.driver.advance");
    *slots += driver.advance(chunk);
  }
  Scope span("sim.driver.advance");
  return driver.drain();
}

/// `otsched run <inst> 8 alg-a/general --record flow --metrics F`, by layer.
void RunStreamReplay(const std::string& inst, const std::string& metrics_out,
                     Counts* counts) {
  std::optional<otsched::Instance> instance;
  {
    Scope span("job.load");
    std::string error;
    instance = otsched::TryLoadInstance(inst, &error);
    if (!instance.has_value()) {
      counts->fail(error);
      return;
    }
  }
  counts->values["job.load_bytes"] = static_cast<double>(FileBytes(inst));
  std::unique_ptr<otsched::Scheduler> policy =
      otsched::MakePolicy("alg-a/general", 1);
  TimedScheduler timed(*policy);
  otsched::MetricsRegistry registry;
  otsched::MetricsObserver metrics(registry);
  TimedObserver observed(metrics);
  otsched::RunContext context(otsched::FlowOnlyOptions());
  context.observer = g_tracer.enabled
                         ? static_cast<otsched::RunObserver*>(&observed)
                         : &metrics;
  otsched::Scheduler& scheduler =
      g_tracer.enabled ? static_cast<otsched::Scheduler&>(timed) : *policy;
  std::int64_t slots = 0;
  const otsched::SimResult result =
      DriveInstance(*instance, 8, scheduler, context, 128, &slots);
  Time bound = 0;
  {
    Scope span("opt.lower_bound");
    bound = otsched::MaxFlowLowerBound(*instance, 8);
  }
  std::ofstream(metrics_out) << registry.to_json();
  std::set<Time> releases;
  for (const otsched::Job& job : instance->jobs()) releases.insert(job.release());
  counts->values["opt.distinct_releases"] = static_cast<double>(releases.size());
  counts->values["opt.lower_bound"] = static_cast<double>(bound);
  counts->values["max_flow"] = static_cast<double>(result.flows.max_flow);
  counts->values["sim.driver.slots"] = static_cast<double>(slots);
  counts->values["sched.pick_calls"] = static_cast<double>(timed.pick_calls);
  counts->values["sched.picked"] = static_cast<double>(timed.picked);
  counts->values["sim.observer.events"] = static_cast<double>(observed.events);
  AlgAFigures(*policy, &counts->values["core.alg_a.restarts"],
              &counts->values["core.alg_a.final_guess"]);
}

/// `otsched sweep <inst> fifo/first-ready --m 8,32 --seeds 4 --workers N
/// --job-faults random-crash:11:0.02 --checkpoint-policy every-slots:8`,
/// by layer: the same BatchRunner fan-out over one shared loaded
/// instance, each cell body timed.
void SweepReplay(const std::string& inst, std::size_t workers,
                 Counts* counts) {
  std::optional<otsched::Instance> instance;
  {
    Scope span("job.load");
    std::string error;
    instance = otsched::TryLoadInstance(inst, &error);
    if (!instance.has_value()) {
      counts->fail(error);
      return;
    }
  }
  counts->values["job.load_bytes"] = static_cast<double>(FileBytes(inst));
  std::string error;
  std::optional<otsched::JobFaultSpec> spec =
      otsched::ParseJobFaultSpec("random-crash:11:0.02", &error);
  if (!spec.has_value() ||
      !otsched::ParseCheckpointPolicyInto("every-slots:8", &*spec, &error)) {
    counts->fail(error);
    return;
  }
  otsched::SimOptions options = otsched::FlowOnlyOptions();
  options.job_faults = *spec;
  const std::vector<int> machines = {8, 32};
  const int seeds = 4;
  struct Cell {
    otsched::SimStats stats;
    std::int64_t slots = 0, pick_calls = 0, picked = 0, events = 0;
    int m = 0;
    double seconds = 0;
  };
  const otsched::BatchRunner runner(workers);
  const Clock::time_point t0 = Clock::now();
  std::vector<Cell> cells;
  {
    Scope span("batch.map");
    cells = runner.Map<Cell>(
        machines.size() * seeds, [&](std::size_t i) {
          Scope span("batch.cell", static_cast<std::int64_t>(i));
          const Clock::time_point start = Clock::now();
          Cell cell;
          cell.m = machines[i / seeds];
          std::unique_ptr<otsched::Scheduler> policy = otsched::MakePolicy(
              "fifo/first-ready", static_cast<std::uint64_t>(i % seeds) + 1);
          TimedScheduler timed(*policy);
          otsched::MetricsRegistry registry;
          otsched::MetricsObserver::Options observer_options;
          observer_options.record_pick_times = false;
          otsched::MetricsObserver metrics(registry, observer_options);
          TimedObserver observed(metrics);
          otsched::RunContext context(options);
          context.observer =
              g_tracer.enabled ? static_cast<otsched::RunObserver*>(&observed)
                               : &metrics;
          otsched::Scheduler& scheduler =
              g_tracer.enabled ? static_cast<otsched::Scheduler&>(timed)
                               : *policy;
          cell.stats = DriveInstance(*instance, cell.m, scheduler, context,
                                     128, &cell.slots)
                           .stats;
          cell.pick_calls = timed.pick_calls;
          cell.picked = timed.picked;
          cell.events = observed.events;
          cell.seconds = Since(start);
          return cell;
        });
  }
  const double wall = Since(t0);
  double busy = 0, cell_max = 0, slots = 0, capacity = 0;
  double executed = 0, wasted = 0, rollbacks = 0, checkpoints = 0;
  double pick_calls = 0, picked = 0, events = 0;
  for (const Cell& cell : cells) {
    busy += cell.seconds;
    cell_max = std::max(cell_max, cell.seconds);
    slots += static_cast<double>(cell.slots);
    capacity += static_cast<double>(cell.slots) * cell.m;
    executed += static_cast<double>(cell.stats.executed_subjobs);
    wasted += static_cast<double>(cell.stats.wasted_subjob_slots);
    rollbacks += static_cast<double>(cell.stats.job_rollbacks);
    checkpoints += static_cast<double>(cell.stats.checkpoints);
    pick_calls += static_cast<double>(cell.pick_calls);
    picked += static_cast<double>(cell.picked);
    events += static_cast<double>(cell.events);
  }
  const double worker_count = static_cast<double>(
      workers > 0 ? workers : std::thread::hardware_concurrency());
  counts->values["batch.cells"] = static_cast<double>(cells.size());
  counts->values["batch.cell_s_max"] = cell_max;
  counts->values["batch.worker_busy_share"] = busy / (worker_count * wall);
  counts->values["sim.driver.slots"] = slots;
  counts->values["sched.capacity"] = capacity;
  counts->values["sched.pick_calls"] = pick_calls;
  counts->values["sched.picked"] = picked;
  counts->values["sim.observer.events"] = events;
  counts->values["sim.job_faults.rollbacks"] = rollbacks;
  counts->values["sim.job_faults.checkpoints"] = checkpoints;
  counts->values["sim.job_faults.wasted_slots"] = wasted;
  // executed_subjobs counts every execution, re-executions included.
  counts->values["sim.job_faults.useful_ratio"] =
      executed > 0 ? (executed - wasted) / executed : 0.0;
}

int CmdTrace(const std::map<std::string, std::string>& flags) {
  const std::string workload = Flag(flags, "--workload");
  const std::uint64_t seed =
      std::strtoull(Flag(flags, "--seed", "1").c_str(), nullptr, 10);
  const perfbench::WorkloadShape shape = ShapeOrDie(workload);
  const bool serve = workload.rfind("serve-", 0) == 0;

  ServeConfig config;
  std::vector<std::string> lines;
  if (serve) {
    config.seed = seed;
    config.policy =
        workload == "serve-outtree" ? "alg-a/general" : "fifo/lpf-height";
    config.m = shape.m;
    config.jobs = std::atoll(Flag(flags, "--jobs", "20000").c_str());
    config.in_flight =
        std::atoll(Flag(flags, "--conns", "3").c_str()) * perfbench::kWindow;
    config.journal = Flag(flags, "--journal");
    perfbench::JobStream stream(shape, seed);
    for (std::int64_t i = 0; i < config.jobs; ++i) {
      lines.push_back(perfbench::SubmitLine(stream.next(),
                                            "c" + std::to_string(i), true));
      lines.back().pop_back();  // the daemon hands the parser bare lines
    }
  }
  const std::string inst = Flag(flags, "--inst");
  const std::string metrics_out = Flag(flags, "--metrics-out", "/dev/null");
  const auto workers =
      static_cast<std::size_t>(std::atoll(Flag(flags, "--workers", "0").c_str()));

  auto run_once = [&](Counts* counts) {
    Scope root("workload");
    if (serve) {
      ServeReplay(config, lines, counts);
    } else if (workload == "run-stream") {
      RunStreamReplay(inst, metrics_out, counts);
    } else {
      SweepReplay(inst, workers, counts);
    }
  };

  // Untraced (no spans, no wrappers) and traced runs alternate twice;
  // the ratio of each kind's faster run is the tracing overhead.  Only
  // the last traced run's spans are kept.
  Counts untraced, counts;
  double untraced_s = 1e300, traced_s = 1e300;
  for (int round = 0; round < 2; ++round) {
    untraced = Counts();
    g_tracer.enabled = false;
    Clock::time_point t0 = Clock::now();
    run_once(&untraced);
    untraced_s = std::min(untraced_s, Since(t0));
    counts = Counts();
    g_tracer.clear();
    g_tracer.enabled = true;
    t0 = Clock::now();
    run_once(&counts);
    traced_s = std::min(traced_s, Since(t0));
    g_tracer.enabled = false;
  }

  const SpanTotals spans = Summarize();
  const std::string spans_path = Flag(flags, "--spans");
  if (!spans_path.empty() && !WriteSpans(spans_path)) {
    counts.fail("cannot write " + spans_path);
  }
  if (!untraced.ok) counts.fail("untraced: " + untraced.why);

  auto self = [&](const std::string& name) {
    const auto it = spans.self_s.find(name);
    return it == spans.self_s.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> out = counts.values;
  out["serve.protocol.parse_s"] = self("serve.protocol.parse");
  out["serve.protocol.parse_bytes_per_s"] =
      out["serve.protocol.parse_s"] > 0
          ? out["serve.protocol.parse_bytes"] / out["serve.protocol.parse_s"]
          : 0.0;
  out.erase("serve.protocol.parse_bytes");
  out["serve.protocol.encode_s"] = self("serve.protocol.encode");
  out["serve.journal.append_s"] = self("serve.journal.append");
  out["serve.journal.commit_s"] = self("serve.journal.commit");
  out["serve.journal.read_s"] = self("serve.journal.read");
  if (out["serve.journal.commits"] > 0) {
    out["serve.journal.records_per_commit"] =
        out["serve.journal.records"] / out["serve.journal.commits"];
  }
  out.erase("serve.journal.records");
  out["sim.driver.submit_s"] = self("sim.driver.submit");
  out["sim.driver.advance_s"] = self("sim.driver.advance");
  out["sim.driver.retire_s"] =
      self("sim.driver.take_finished") + self("sim.driver.retire");
  out["sim.driver.replay_s"] = self("sim.driver.replay");
  out["sched.pick_s"] = self("sched.pick");
  out["sched.arrival_s"] = self("sched.on_arrival");
  const double capacity = out.count("sched.capacity") > 0
                              ? out["sched.capacity"]
                              : out["sim.driver.slots"] * shape.m;
  out["sched.utilization"] = capacity > 0 ? out["sched.picked"] / capacity : 0;
  out.erase("sched.capacity");
  out.erase("sched.picked");
  out["sim.observer.batch_s"] = self("sim.observer.batch");
  out["opt.lower_bound_s"] = self("opt.lower_bound");
  out["job.load_s"] = self("job.load");
  out["batch.map_s"] = self("batch.map");
  out["trace.coverage"] =
      spans.root_s > 0 ? 1.0 - spans.uncovered_s / spans.root_s : 0.0;
  out["trace.overhead"] = traced_s / untraced_s - 1.0;
  out["trace.spans"] = 0;
  for (const auto& [name, n] : spans.count) {
    out["trace.spans"] += static_cast<double>(n);
  }
  out["trace.traced_s"] = traced_s;
  out["trace.untraced_s"] = untraced_s;

  std::printf("{\"ok\": %s, \"why\": \"%s\", \"metrics\": {",
              counts.ok ? "true" : "false", counts.why.c_str());
  bool first = true;
  for (const auto& [name, value] : out) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return counts.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness gen-inst|load|replay|trace "
                 "[--flag value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv, 2);
  if (command == "gen-inst") return CmdGenInst(flags);
  if (command == "load") return CmdLoad(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "trace") return CmdTrace(flags);
  std::fprintf(stderr, "harness: unknown command '%s'\n", command.c_str());
  return 2;
}
