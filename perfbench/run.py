#!/usr/bin/env python3
"""The otsched benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload serve-outtree --seed 1 --seconds 30 --trace 0

Builds the checkout (Release) into $CARGO_TARGET_DIR (default
.bench_build), refuses a build without optimisation, generates the
workload's inputs from --seed, drives the shipped `otsched` binary,
checks every output, prints each metric with its unit and sample count,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 is the separate
traced run that reports the per-layer metrics (and writes the span file
to <build>/spans/<workload>.ndjson).  Workloads and metrics are
described in perfbench/NOTES.md.  Exit status: 0 when every check
passed, 1 when a check failed, 2 on bad usage or an unusable checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1

# Load from one client process: at most nproc - 1 connections.
CONNS = max(1, min(3, NPROC - 1))

SERVE = {
    # Policy and the fixed open-loop rate (jobs/s), set below half the
    # closed-loop jobs_per_s measured on the parent commit (NOTES.md).
    "serve-outtree": {"policy": "alg-a/general", "open_rate": 8000,
                      "journal": False},
    "serve-journal": {"policy": "fifo/lpf-height", "open_rate": 10000,
                      "journal": True},
}
SESSION_JOBS = 12500  # jobs a fresh daemon serves in one phase
RUN_STREAM_JOBS = 1000
RUN_STREAM_INSTANCES = 15  # instances per run, each with its own seed
SWEEP_JOBS = 4000
M = 8

# Metric names and units come from the benchmark's declaration.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
    DECLARED = json.load(spec)
END_TO_END = [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
WORKLOADS = ["serve-outtree", "serve-journal", "run-stream", "sweep-rollback"]


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


class Run:
    """Accumulates the operations, checks and metrics of one invocation."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}   # name -> (value, unit, samples)
        self.notes = {}     # extra figures for the result file

    def op(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)
        return ok

    def put(self, name, value, unit, samples=1):
        self.metrics[name] = (float(value), unit, samples)


# ------------------------------------------------------------------ build


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, path))


def build(bdir):
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=False)
        done = subprocess.run(
            ["cmake", "--build", cmake_dir, "-j", str(NPROC), "--target",
             "otsched_cli", "perfbench_client", "perfbench_harness"],
            stdout=log, stderr=log, check=False)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        die(f"build failed (log: {log_path})", 1)
    return {
        "otsched": os.path.join(cmake_dir, "otsched", "tools", "otsched"),
        "client": os.path.join(cmake_dir, "perfbench_client"),
        "harness": os.path.join(cmake_dir, "perfbench_harness"),
        "cmake_dir": cmake_dir,
    }


def cache_value(cmake_dir, key):
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def require_optimised(cmake_dir):
    """Refuses a build whose library sources compile without -O2/-O3."""
    with open(os.path.join(cmake_dir, "compile_commands.json")) as f:
        commands = json.load(f)
    sources = [c for c in commands
               if os.sep + "src" + os.sep in c["file"]]
    if not sources:
        die("no library sources in compile_commands.json")
    for entry in sources:
        flags = entry.get("command", " ".join(entry.get("arguments", [])))
        if not re.search(r"(^|\s)-O[23s](\s|$)", flags) or \
                re.search(r"\s-O0(\s|$)", flags):
            die(f"refusing an unoptimised build: {entry['file']} compiles "
                f"without -O2/-O3 ({cache_value(cmake_dir, 'CMAKE_BUILD_TYPE')!r})")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def run_context(cmake_dir, journal_dir):
    cpu_model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                if line.startswith("cpu MHz") and mhz == "unknown":
                    mhz = line.split(":", 1)[1].strip()
    except OSError:
        pass
    compiler = cache_value(cmake_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=False).stdout.strip()
    if not commit:
        digest = hashlib.sha256()
        for top in ("src", "tools", "CMakeLists.txt"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        commit = "sources-sha256:" + digest.hexdigest()[:16]
    fs = subprocess.run(["stat", "-f", "-c", "%T", journal_dir],
                        capture_output=True, text=True, check=False).stdout.strip()
    return {
        "nproc": NPROC, "cpu_model": cpu_model, "cpu_mhz": mhz,
        "build_type": cache_value(cmake_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version, "commit": commit,
        "loadavg": list(os.getloadavg()), "journal_fs": fs or "unknown",
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------- daemons


class Daemon:
    """One `otsched serve` process; always reaped, peak RSS from wait4.
    A daemon that hangs for 120 s is killed (and then fails its checks)."""

    def __init__(self, otsched, args, stderr_path):
        self.stderr = open(stderr_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [otsched, "serve", "--listen", "127.0.0.1:0"] + args,
            stdout=subprocess.PIPE, stderr=self.stderr)
        self.watchdog = threading.Timer(120, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.addr = None
        self.lines = []
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace").strip()
            self.lines.append(line)
            if line.startswith("listening on "):
                self.addr = line.split()[-1]
                break
        self.setup_s = time.perf_counter() - start
        self.status = None
        self.rss_mb = 0.0

    def stop(self):
        """SIGTERM (graceful drain); returns the exit code."""
        if self.status is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.lines += [l.decode(errors="replace").strip()
                           for l in self.proc.stdout.readlines()]
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.status = self.proc.returncode
            self.rss_mb = usage.ru_maxrss / 1024.0
            self.proc.stdout.close()
            self.stderr.close()
        return self.status


def http_get(addr, path):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks).decode(errors="replace")
    head, _, body = raw.partition("\r\n\r\n")
    return head.split("\r\n", 1)[0], body


def check_metrics_doc(run, path, what):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "check_metrics_schema.py"), path],
        capture_output=True, text=True, check=False)
    return run.op(done.returncode == 0,
                  f"{what} fails check_metrics_schema.py: "
                  f"{(done.stdout + done.stderr).strip()[-300:]}")


def serve_session(run, bins, workload, seed, closed_jobs, open_jobs,
                  journal_path):
    """One daemon: the client's closed or open phase, a /metrics capture,
    a graceful drain, and (after a closed phase) the offline replay
    check.  Returns (daemon, client summary, /metrics document)."""
    spec = SERVE[workload]
    args = ["--m", str(M), "--policy", spec["policy"], "--seed", str(seed)]
    if journal_path:
        args += ["--journal", journal_path]
    daemon = Daemon(bins["otsched"], args,
                    os.path.join(run.workdir, "daemon.err"))
    summary, doc, sent = None, {}, 0
    try:
        if not run.op(daemon.addr is not None, "daemon did not start listening"):
            return daemon, None, {}
        log = os.path.join(run.workdir, "closed.tsv")
        latencies = os.path.join(run.workdir, "latency.txt")
        ticks0 = cpu_ticks()
        try:
            client = subprocess.run(
                [bins["client"], "--addr", daemon.addr, "--workload", workload,
                 "--seed", str(seed), "--conns", str(CONNS),
                 "--closed-jobs", str(closed_jobs),
                 "--open-jobs", str(open_jobs),
                 "--open-rate", str(spec["open_rate"]),
                 "--log", log, "--latency-log", latencies],
                capture_output=True, text=True, check=False, timeout=150)
            summary = json.loads(client.stdout.strip().splitlines()[-1])
            ticks1 = cpu_ticks()
            summary["steal"] = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as error:
            run.op(False, f"client failed: {error}")
            return daemon, None, {}
        sent = summary["closed_sent"] + summary["open_sent"]
        bad = (summary["closed_failed"] + summary["closed_missing"] +
               summary["open_failed"] + summary["open_missing"])
        run.attempted += sent
        run.failed += bad
        if bad or client.returncode != 0:
            run.problems.append(f"{bad} failed replies: {summary['errors']}")
        with open(latencies) as f:
            summary["latencies_ms"] = [float(x) for x in f]
        try:
            status, body = http_get(daemon.addr, "/metrics")
        except OSError as error:
            status, body = f"unreachable: {error}", ""
        metrics_path = os.path.join(run.workdir, "metrics.json")
        with open(metrics_path, "w") as f:
            f.write(body)
        if run.op(status.endswith("200 OK"), f"/metrics answered {status!r}"):
            check_metrics_doc(run, metrics_path, "/metrics capture")
            doc = json.loads(body)
        if closed_jobs > 0:
            replay = subprocess.run(
                [bins["harness"], "replay", "--workload", workload, "--seed",
                 str(seed), "--policy", spec["policy"], "--m", str(M),
                 "--log", log],
                capture_output=True, text=True, check=False, timeout=170)
            if run.op(replay.returncode == 0, "offline replay of the closed "
                      f"loop diverged: {replay.stdout.strip()}"):
                summary["replay"] = json.loads(replay.stdout)
    finally:
        code = daemon.stop()
    drained = [l for l in daemon.lines if l.startswith("drained:")]
    expect = f"drained: {sent} jobs submitted, {sent} finished"
    run.op(code == 0 and drained == [expect],
           f"daemon exit {code}, drain line {drained}, expected {expect!r}")
    return daemon, summary, doc


def cold_start(run, bins, args):
    """Times one daemon launch to its `listening on` line."""
    daemon = Daemon(bins["otsched"], args, os.path.join(run.workdir, "setup.err"))
    try:
        ok = daemon.addr is not None
    finally:
        code = daemon.stop()
    run.op(ok and code == 0, f"launch {args} exited {code}")
    return daemon.setup_s if ok and code == 0 else None


def serve_workload(run, bins, workload, seed, seconds, trace):
    """Closed-loop and open-loop sessions, alternating, each on a fresh
    daemon serving SESSION_JOBS jobs of its own input seed; one pair per
    2 s of --seconds.  Alternating spreads both phases over the whole
    run, so a slow spell of the host touches both alike."""
    spec = SERVE[workload]
    pairs = 1 if trace else max(1, round(seconds / 2))
    base = ["--m", str(M), "--policy", spec["policy"]]
    wal = os.path.join(run.workdir, "journal.wal") if spec["journal"] else ""
    closes, flows, rss, setup, doc = [], [], [], [], {}
    opens, latencies, late, cpu_share = [], [], [], []
    for i in range(pairs):
        closed_seed, open_seed = seed * 100 + 2 * i, seed * 100 + 2 * i + 1
        if wal and os.path.exists(wal):
            os.remove(wal)
        daemon, summary, doc = serve_session(run, bins, workload, closed_seed,
                                             SESSION_JOBS, 0, wal)
        if summary is not None:
            closes.append(summary)
            if "replay" in summary:
                flows.append(summary["replay"]["requested_max_flow"])
            rss.append(daemon.rss_mb)
            closed = summary
            # setup_s: a cold start, or --recover of the drained journal.
            launch = base + ["--seed", str(closed_seed)]
            setup.append(cold_start(run, bins,
                                    launch + (["--recover", wal] if wal else [])))
            if not wal:
                setup.append(daemon.setup_s)
        if wal and os.path.exists(wal):
            os.remove(wal)
        _, opened, _ = serve_session(run, bins, workload, open_seed, 0,
                                     SESSION_JOBS, wal)
        if opened is not None and opened["latencies_ms"]:
            opens.append(opened)
            latencies += opened["latencies_ms"]
            late.append(opened["late_p99_ms"])
            cpu_share.append(opened["cpu_s"] / opened["wall_s"])
    setup = [t for t in setup if t is not None]
    if not closes or not opens or not setup or not flows:
        return
    if trace:
        put_layers(run, serve_layers(run, bins, workload, seed, closed,
                                     max(late), max(cpu_share), doc))
        return
    # Each session's figure is over its 12,500 jobs; medians across
    # sessions keep a host stall in one session from setting a figure.
    # The timings follow the CPU time the hypervisor steals from a shared
    # VM (NOTES.md), so they are medians over the third of each phase's
    # sessions with the least steal.  The choice is by steal, never by
    # time: a slower daemon is slower in those sessions too.  The p99
    # moves with steal even there, too far for a bound, so it is a note.
    # max_flow is that of the sessions' requested releases run through
    # Simulate, which the daemon's timing cannot move.  Every session's
    # value is a note.
    def calm(sessions):
        return sorted(sessions, key=lambda o: o["steal"])[:(len(sessions) + 2) // 3]
    run.put("jobs_per_s", statistics.median(
        o["closed_ok"] / o["closed_seconds"] for o in calm(closes)), "1/s",
        len(calm(closes)))
    run.put("reply_p50_ms", statistics.median(o["p50_ms"] for o in calm(opens)),
            "ms", sum(o["open_ok"] for o in calm(opens)))
    run.put("run_s", statistics.median(o["closed_seconds"] for o in calm(closes)),
            "s", len(calm(closes)))
    run.put("setup_s", statistics.median(setup), "s", len(setup))
    run.put("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    run.put("max_flow", statistics.median(flows), "slots", len(flows))
    run.notes["closed_load_median"] = round(
        statistics.median(o["closed_load"] for o in closes), 4)
    run.notes["reply_p99_ms"] = statistics.median(o["p99_ms"] for o in calm(opens))
    run.notes["all_replies_p50_p99_ms"] = [quantile(latencies, 0.50),
                                           quantile(latencies, 0.99)]
    run.notes["session_jobs_per_s"] = [
        round(o["closed_ok"] / o["closed_seconds"]) for o in closes]
    run.notes["session_replied_max_flow"] = [o["max_flow"] for o in closes]
    run.notes["session_p50_ms"] = [round(o["p50_ms"], 3) for o in opens]
    run.notes["session_p99_ms"] = [round(o["p99_ms"], 2) for o in opens]
    run.notes["session_steal_share"] = {
        "closed": [round(o["steal"], 4) for o in closes],
        "open": [round(o["steal"], 4) for o in opens]}
    run.notes["client_cpu_share_max"] = max(cpu_share)
    run.notes["open_late_p99_ms_max"] = max(late)
    run.notes["open_rate"] = spec["open_rate"]


def serve_layers(run, bins, workload, seed, closed, late_p99, cpu_share, doc):
    """serve.server figures from the client and the open session's
    /metrics, plus the harness's traced replay of the serve loop."""
    values = {
        "serve.clamped_share": closed["clamped"] / max(1, closed["closed_ok"]),
        "client.cpu_share": cpu_share,
        "client.late_ms_p99": late_p99,
        "serve.arena_nodes_peak": doc.get("gauges", {}).get(
            "serve.arena_nodes", {}).get("max", 0),
        "serve.overloaded_replies": doc.get("counters", {}).get(
            "serve.overloaded_replies", 0),
    }
    journal = os.path.join(run.workdir, "harness.wal") if SERVE[workload]["journal"] else ""
    values.update(harness_trace(run, bins, workload, seed,
                                ["--jobs", "20000", "--conns", str(CONNS)] +
                                (["--journal", journal] if journal else [])))
    return values


# ---------------------------------------------------------------- offline


def make_inst(run, bins, workload, seed, jobs):
    path = os.path.join(run.workdir, f"{workload}-{seed}.inst")
    done = subprocess.run([bins["harness"], "gen-inst", "--workload", workload,
                           "--seed", str(seed), "--jobs", str(jobs), "--out", path],
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        die(f"cannot generate {path}: {done.stderr}", 1)
    run.notes.setdefault("instance_load", []).append(json.loads(done.stdout)["load"])
    return path


def load_times(run, bins, inst, reps):
    done = subprocess.run([bins["harness"], "load", "--inst", inst, "--reps", str(reps)],
                          capture_output=True, text=True, check=False)
    if not run.op(done.returncode == 0, f"loading {inst} failed: {done.stderr}"):
        return []
    return json.loads(done.stdout)["load_s"]


def timed_process(argv, workdir, timeout=170):
    """Runs argv; returns (exit code, wall s, peak RSS MB, stdout, stderr).
    A negative exit code is the signal that ended the process."""
    out_path = os.path.join(workdir, "proc.out")
    err_path = os.path.join(workdir, "proc.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as out, \
            open(err_path, errors="replace") as err:
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(), err.read()


def run_stream(run, bins, seed, seconds, trace):
    """`otsched run` on RUN_STREAM_INSTANCES instances (seeds seed*100+i),
    round robin until --seconds have passed and each ran once."""
    seeds = [seed * 100 + i for i in range(RUN_STREAM_INSTANCES)]
    insts = [make_inst(run, bins, "run-stream", s, RUN_STREAM_JOBS) for s in seeds]
    if trace:
        put_layers(run, harness_trace(run, bins, "run-stream", seeds[0],
                                      ["--inst", insts[0], "--metrics-out",
                                       os.path.join(run.workdir, "traced.json")]))
        return
    # The max flow and lower bound recorded for each instance seed.  A
    # seed with no record runs unchecked on those two figures, and says so.
    with open(os.path.join(HERE, "expected.json")) as f:
        recorded = json.load(f)["run-stream"]
    expected = [recorded.get(str(s)) for s in seeds]
    if None in expected:
        run.notes["unchecked"] = (f"seed {seed} has no recorded max flow and "
                                  "lower bound in perfbench/expected.json")
    metrics = os.path.join(run.workdir, "run-metrics.json")
    walls, rss, flows, setup, by_instance = [], [], {}, [], {}
    start = time.perf_counter()
    i = 0
    while i < len(insts) or time.perf_counter() - start < seconds:
        k = i % len(insts)
        i += 1
        # Load timings interleave with the runs, so a slow spell of the
        # host touches both alike.
        setup += load_times(run, bins, insts[k], 3)
        code, wall, peak, out, err = timed_process(
            [bins["otsched"], "run", insts[k], str(M), "alg-a/general",
             "--record", "flow", "--metrics", metrics], run.workdir)
        flow = re.search(r"max flow\s*:\s*(\d+)", out)
        bound = re.search(r"denominator (\d+)", out)
        ok = code == 0 and flow and bound and (
            expected[k] is None or
            (int(flow.group(1)) == expected[k]["max_flow"] and
             int(bound.group(1)) == expected[k]["lower_bound"]))
        if not run.op(bool(ok), f"otsched run exit {code}: {out.strip()[-200:]} "
                      f"{err.strip()[-200:]} (expected {expected[k]})"):
            continue
        if check_metrics_doc(run, metrics, "run metrics"):
            walls.append(wall)
            by_instance.setdefault(k, []).append(wall)
            rss.append(peak)
            flows[k] = int(flow.group(1))
    if not walls or not setup:
        return
    load_s = statistics.median(setup)
    run_s = [w - load_s for w in walls]
    run.put("jobs_per_s", RUN_STREAM_JOBS / statistics.median(run_s), "1/s", len(walls))
    run.put("reply_p50_ms", 1e3 * quantile(walls, 0.5), "ms", len(walls))
    # The tail is over instances, each at its median wall time, so one
    # invocation the host stalled does not set it.
    run.notes["reply_p99_ms"] = 1e3 * quantile(
        [statistics.median(w) for w in by_instance.values()], 0.99)
    run.put("run_s", statistics.median(run_s), "s", len(walls))
    run.put("setup_s", load_s, "s", len(setup))
    run.put("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    run.put("max_flow", statistics.median(flows.values()), "slots", len(flows))


def sweep_argv(bins, inst, workers, metrics):
    return [bins["otsched"], "sweep", inst, "fifo/first-ready", "--m", "8,32",
            "--seeds", "4", "--workers", str(workers),
            "--job-faults", "random-crash:11:0.02",
            "--checkpoint-policy", "every-slots:8", "--metrics", metrics]


def sweep_rollback(run, bins, seed, seconds, trace):
    inst = make_inst(run, bins, "sweep-rollback", seed, SWEEP_JOBS)
    if trace:
        put_layers(run, harness_trace(run, bins, "sweep-rollback", seed,
                                      ["--inst", inst, "--workers", str(NPROC)]))
        return
    setup = load_times(run, bins, inst, 15)
    ref_metrics = os.path.join(run.workdir, "ref-metrics.json")
    code, _, _, ref_out, _ = timed_process(sweep_argv(bins, inst, 1, ref_metrics),
                                           run.workdir)
    if not run.op(code == 0, f"--workers 1 reference sweep exited {code}") or not setup:
        return
    with open(ref_metrics) as f:
        reference = json.load(f)
    cells = 8
    metrics = os.path.join(run.workdir, "sweep-metrics.json")
    walls, rss, aborts = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if os.path.exists(metrics):
            os.remove(metrics)
        code, wall, peak, out, _ = timed_process(sweep_argv(bins, inst, NPROC, metrics),
                                                 run.workdir)
        same = False
        if code == 0 and os.path.exists(metrics):
            with open(metrics) as f:
                same = out == ref_out and json.load(f) == reference
        if code != 0:
            aborts += 1
        if run.op(same, f"sweep --workers {NPROC} exit {code} "
                  f"({'signal ' + str(-code) if code < 0 else 'output differs'})",
                  count=cells):
            walls.append(wall)
            rss.append(peak)
    run.notes["sweeps"] = aborts + len(walls)
    run.notes["aborted_sweeps"] = aborts
    if not walls:
        return
    load_s = statistics.median(setup)
    run_s = [w - load_s for w in walls]
    flows = [int(x) for x in re.findall(r"\|\s*m=\d+\s*\|[^|]*\|[^|]*\|\s*(\d+)", ref_out)]
    run.put("jobs_per_s", cells * SWEEP_JOBS / statistics.median(run_s), "1/s", len(walls))
    run.put("reply_p50_ms", 1e3 * quantile(walls, 0.5), "ms", len(walls))
    run.notes["reply_p99_ms"] = 1e3 * quantile(walls, 0.99)
    run.put("run_s", statistics.median(run_s), "s", len(walls))
    run.put("setup_s", load_s, "s", len(setup))
    run.put("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    run.put("max_flow", max(flows) if flows else 0, "slots", cells)


# ----------------------------------------------------------------- traced


def harness_trace(run, bins, workload, seed, extra):
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{workload}.ndjson")
    done = subprocess.run([bins["harness"], "trace", "--workload", workload,
                           "--seed", str(seed), "--spans", spans] + extra,
                          capture_output=True, text=True, check=False, timeout=170)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        run.op(False, f"traced run died (exit {done.returncode}): "
                      f"{done.stderr.strip()[-300:]}")
        return {}
    run.op(result["ok"], f"traced run check failed: {result['why']}")
    run.notes["spans_file"] = os.path.relpath(spans, ROOT)
    run.notes["traced"] = result["metrics"]
    return result["metrics"]


def put_layers(run, values):
    # A layer that does not run on this workload reports 0.
    for name, unit in PER_LAYER:
        run.put(name, values.get(name, 0.0), unit, 1)


# ------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"no {needed} next to perfbench/: run from a full checkout")
    bdir = build_dir()
    bins = build(bdir)
    require_optimised(bins["cmake_dir"])

    workdir = os.path.join(bdir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    context = run_context(bins["cmake_dir"], workdir)
    steal0, total0 = cpu_ticks()
    run = Run(workdir)
    try:
        if args.workload.startswith("serve-"):
            serve_workload(run, bins, args.workload, args.seed, args.seconds,
                           args.trace)
        elif args.workload == "run-stream":
            run_stream(run, bins, args.seed, args.seconds, args.trace)
        else:
            sweep_rollback(run, bins, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The share of CPU time the hypervisor gave to others during the run.
    steal1, total1 = cpu_ticks()
    context["host_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)

    wanted = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        ok = run.attempted - run.failed
        run.put("ok_ratio", ok / max(1, run.attempted), "ratio", run.attempted)
    missing = [name for name, _ in wanted if name not in run.metrics]
    if missing:
        run.op(False, f"no value for {missing}")
    correct = run.failed == 0 and not run.problems
    print("context: " + json.dumps(context, sort_keys=True))
    for name, _ in wanted:
        if name in run.metrics:
            value, unit, samples = run.metrics[name]
            print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    for note, value in sorted(run.notes.items()):
        if note != "traced":
            print(f"note {note} = {value}")
    if run.attempted:
        print(f"failed_ratio = {run.failed / run.attempted:.6g} "
              f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:10]:
        print(f"FAILED: {problem}")
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"context": context, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": {k: list(v) for k, v in run.metrics.items()},
                   "notes": run.notes, "problems": run.problems}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name][0], "unit": unit}
                    for name, unit in wanted if name in run.metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
