#!/usr/bin/env python3
"""End-to-end benchmark of the TIM+ request paths, with a traced per-layer run.

    python3 perfbench/run.py --workload <cold-start|warm-mix|restart-grow>
                             --seed <n> [--seconds 10] [--trace 0|1]

Run it from the repository root. It builds `tim` and the in-process probe
(`perfbench/`, its own cargo workspace) into $CARGO_TARGET_DIR (default
`.bench_build`), generates the workload's inputs from --seed, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 drives the real `tim serve` binary over TCP and reports every
end-to-end metric of BENCHMARK.json; --trace 1 runs the in-process traced
probe and reports every per-layer metric. The full report (run context,
sample counts, percentiles, `stats pools` lines, spans and self times) is
written to `.bench_run/reports/`. `--self-test` checks the benchmark's own
arithmetic and exits. See perfbench/README.md for what each workload and
metric is for.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# Inputs and server parameters shared by every workload. The graph and
# the server's sampling seed are fixed: a different graph or sampling
# stream moves θ, and every timing with it, by more than the bounds allow
# (see README.md). The workload seed draws all traffic.
NODES = 50_000
GRAPH_SEED = 1
SERVER_SEED = 7
EPS = 0.3
ELL = 1
K_MAX = 50
GROW_K = 1000
# CPUs this process may run on (its affinity mask, which a container's
# cpuset narrows), not the host's count.
NPROC = len(os.sched_getaffinity(0))
# The warm-mix request mix, by share of each connection's script.
MIX = (("select", 0.30), ("select_fast", 0.40), ("eval", 0.15), ("marginal", 0.15))
# Each warm-mix connection sends this many lines per measured second.
MIX_LINES_PER_S = 70
# Nominal length of one cold-start cycle; --seconds buys this many cycles.
COLD_CYCLE_S = 15
# Server spawns over the persisted store per restart-grow run: all but
# the last time only the first answer.
RESTARTS = 3
# Input generations behind cold-start's setup_s.
COLD_SETUPS = 5
# Full set-ups (fresh spawn, warm, plan pre-touch) per warm-mix run; each
# is followed by its share of the timed scripts.
WARM_SETUPS = 2
# Lines in the cheap-read script restart-grow's second connection cycles
# through.
READ_SCRIPT_LINES = 2000
# The highest percentile a tail timing reports.
TAIL_CAP = 80
# In-process TimPlus::run repetitions per reference row; each workload
# takes the row at three or more points of its run.
ONESHOT_REPS = 2
# Distinct eval / marginal lines each workload draws its cheap reads from.
CHEAP_LINES = 48
# Cheap reads per cold-start burst (two bursts a cycle).
CHEAP_BURST = 5000
# Lines of the warm-mix script the traced run replays.
TRACE_MIX_LINES = 400
# The host-speed probe (`perfbench-probe calibrate`): log2 of its table
# size (256 KiB, so it times the cores rather than the shared memory
# system), links chased per thread per repetition, repetitions per call,
# and the median repetition on the host the bounds were set on (2-vCPU
# Xeon VM, 2 threads). Every timing is reported scaled by CAL_REF_S over
# the run's median repetition (see `speed_factor`).
CAL_BITS = 16
CAL_STEPS = 30_000_000
CAL_REPS = 3
CAL_REF_S = 0.21
# The whole run must end well inside the 180 s a run may take.
DEADLINE_S = 170
# Reference answers, kept across runs (see `Run.reference`).
CACHE_DIR = os.path.join(".bench_run", "cache")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Which end-to-end metric, on which workload, each per-layer metric
# should move. Written into every report. restart-grow runs by hand only:
# it is not in BENCHMARK.json (see README.md).
LAYER_MOVES = {
    "graph.load_ms": "first_answer_s on cold-start, warm-mix and restart-grow",
    "core.plan_ms": "first_answer_s, exact_p50_ms on cold-start (its replans) and restart-grow",
    "core.plan_rr_sets": "oneshot_s on every workload",
    "sample.k50_ms": "oneshot_s, first_answer_s on cold-start",
    "sample.k1000_ms": "script_s on restart-grow (the select 1000 growth)",
    "sample.sets_per_s": "oneshot_s, first_answer_s on cold-start; script_s on restart-grow",
    "engine.warm_ms": "first_answer_s on cold-start; setup_s on warm-mix",
    "engine.pool_theta": "first_answer_s, peak_rss_mb on cold-start",
    "engine.theta_useful_ratio": "first_answer_s, peak_rss_mb on cold-start",
    "engine.pool_mb": "peak_rss_mb on every workload",
    "engine.exact_select_ms": "exact_p50_ms, exact_tail_ms on warm-mix",
    "coverage.greedy_ms": "exact_p50_ms on warm-mix (about 0 share on cold-start)",
    "coverage.evals_per_round": "exact_p50_ms on warm-mix",
    "engine.fast_select_us": "cheap_p50_ms on warm-mix",
    "engine.eval_us": "cheap_p50_ms on warm-mix",
    "engine.marginal_us": "cheap_p50_ms on warm-mix",
    "engine.restore_ms": "first_answer_s on restart-grow",
    "engine.spill_ms": "setup_s on restart-grow",
    "engine.pool_file_mb": "setup_s, first_answer_s on restart-grow",
    "engine.grow_ms": "script_s on restart-grow",
    "engine.read_wait_ms": "cheap_tail_ms on restart-grow and cold-start",
    "server.parse_us": "cheap_p50_ms on warm-mix",
    "server.route_us": "cheap_p50_ms on warm-mix",
    "server.session_us.select": "exact_p50_ms on warm-mix",
    "server.session_us.select_fast": "cheap_p50_ms on warm-mix",
    "server.session_us.eval": "cheap_p50_ms on warm-mix",
    "server.session_us.marginal": "cheap_p50_ms on warm-mix",
    "server.wire_ms.select": "exact_p50_ms on warm-mix",
    "server.wire_ms.select_fast": "cheap_p50_ms, cheap_tail_ms on warm-mix",
    "server.wire_ms.eval": "cheap_p50_ms, cheap_tail_ms on warm-mix",
    "server.wire_ms.marginal": "cheap_p50_ms, cheap_tail_ms on warm-mix",
    "server.cache.hits": "first_answer_s on restart-grow",
    "server.cache.misses": "first_answer_s on restart-grow",
    "server.cache.builds": "first_answer_s on restart-grow (must stay 0 after a restart)",
    "server.cache.loads": "first_answer_s on restart-grow",
}


class BenchError(Exception):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------------------
# Arithmetic: percentiles, self time, names. Checked by --self-test and at
# the start of every run.


def median(xs):
    return statistics.median(xs)


def tail(xs):
    """The highest percentile, at most the 80th, with at least 10 samples
    beyond it (nearest rank). Capping at p80 keeps the tail of a large
    sample off the scheduling hiccups of a small shared host, which move
    a p99, and the p90 of cold-start's 98 replans, from run to run by
    more than the bounds allow. Returns (value, percentile, n)."""
    n = len(xs)
    if n < 11:
        raise BenchError(f"{n} samples: a tail needs at least 11")
    pct = min(TAIL_CAP, math.floor(100 * (n - 10) / n))
    return sorted(xs)[-(-pct * n // 100) - 1], pct, n


def timing(xs):
    """Median and tail of one timing, with its sample count."""
    value, pct, n = tail(xs)
    return {"p50": median(xs), "tail": value, "tail_percentile": pct, "n": n}


def arrival_waits(reads, w0, w1):
    """What a cheap read arriving at a uniformly random instant of the
    window [w0, w1] would wait, from a closed-loop reader's read
    intervals (start, end): an arrival during the read in flight is
    answered when that read is, at its end (a read stalled behind a
    write stalls the newcomer too). Returns, per read overlapping the
    window, the range (lo, hi) of waits its clipped interval contributes,
    each wait in it equally likely. A count of fast reads, which depends
    on races, barely moves this: a read weighs what it lasts."""
    waits = []
    for s, e in reads:
        a, b = max(s, w0), min(e, w1)
        if b > a:
            waits.append((e - b, e - a))
    return waits


def wait_quantile(waits, q):
    """The q-quantile of a random arrival's wait (see `arrival_waits`)."""
    target = q * sum(hi - lo for lo, hi in waits)
    lo_r, hi_r = 0.0, max(hi for _, hi in waits)
    for _ in range(100):
        mid = (lo_r + hi_r) / 2
        if sum(min(max(mid - lo, 0.0), hi - lo) for lo, hi in waits) < target:
            lo_r = mid
        else:
            hi_r = mid
    return hi_r


def arrival_timing(waits):
    """Median and tail of a random arrival's wait: the tail is the
    highest percentile up to TAIL_CAP with at least 10 reads whose waits
    reach beyond it. `n` counts the reads."""
    for pct in range(TAIL_CAP, 0, -1):
        value = wait_quantile(waits, pct / 100)
        beyond = sum(hi > value for _, hi in waits)
        if beyond >= 10:
            return {"p50": wait_quantile(waits, 0.5), "tail": value,
                    "tail_percentile": pct, "n": len(waits), "beyond": beyond}
    raise BenchError(f"{len(waits)} reads: no tail with 10 reads beyond it")


def self_times(spans):
    """Per span name: total self time and count, in ms.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (the union, so overlapping children count
    once, and clipped to the parent)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    totals = defaultdict(lambda: [0.0, 0])
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        t = totals[s["name"]]
        t[0] += (hi - lo - covered) / 1e6
        t[1] += 1
    return {name: {"self_ms": t[0], "count": t[1]} for name, t in sorted(totals.items())}


def check_name(name):
    if not NAME_RE.match(name):
        raise BenchError(f"bad metric name '{name}'")
    return name


def self_test():
    # Percentile rule: the highest percentile up to p80 with at least 10
    # samples beyond it, with its percentile and count.
    assert tail(list(range(1, 1001))) == (800, 80, 1000)
    assert tail(list(range(1, 101))) == (80, 80, 100)
    assert tail(list(range(1, 100))) == (80, 80, 99)
    assert tail(list(range(50))) == (39, 80, 50)
    assert tail(list(range(1, 50))) == (39, 79, 49)
    assert tail([5.0] * 11) == (5.0, 9, 11)
    try:
        tail(list(range(10)))
        raise AssertionError("10 samples must not give a tail")
    except BenchError:
        pass
    assert timing([3, 1, 2] + [10] * 10)["n"] == 13
    # A random arrival's wait: uniform over each read's clipped interval.
    waits = arrival_waits([(0, 1), (1, 3), (5, 6)], 0, 3)
    assert waits == [(0, 1), (0, 2)], waits
    assert abs(wait_quantile(waits, 0.5) - 0.75) < 1e-9
    assert abs(wait_quantile(waits, 0.9) - 1.7) < 1e-9
    assert arrival_waits([(0, 10)], 2, 4) == [(6, 8)]
    assert abs(wait_quantile([(6, 8)], 0.5) - 7) < 1e-9
    stalls = arrival_waits([(i, i + 1) for i in range(20)], 0, 20)
    t = arrival_timing(stalls)
    assert (t["tail_percentile"], t["n"], t["beyond"]) == (80, 20, 20), t
    assert abs(t["tail"] - 0.8) < 1e-9 and abs(t["p50"] - 0.5) < 1e-9
    # Self time: overlapping children count once; children are clipped.
    spans = [
        {"id": 1, "parent": 0, "name": "root", "start_ns": 0, "end_ns": 100},
        {"id": 2, "parent": 1, "name": "a", "start_ns": 10, "end_ns": 50},
        {"id": 3, "parent": 1, "name": "b", "start_ns": 40, "end_ns": 70},
        {"id": 4, "parent": 1, "name": "b", "start_ns": 90, "end_ns": 120},
        {"id": 5, "parent": 2, "name": "c", "start_ns": 20, "end_ns": 30},
    ]
    st = self_times(spans)
    assert st["root"] == {"self_ms": 30 / 1e6, "count": 1}, st["root"]
    assert st["a"]["self_ms"] == 30 / 1e6
    assert st["b"] == {"self_ms": 60 / 1e6, "count": 2}
    # Metric-name grammar.
    for good in ("setup_s", "server.wire_ms.select_fast", "1.x-y"):
        check_name(good)
    for bad in ("", "_x", "a b", "x/y", "a" * 65):
        try:
            check_name(bad)
            raise AssertionError(f"'{bad}' must be rejected")
        except BenchError:
            pass


# ---------------------------------------------------------------------------
# Processes: build, probe, server.


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(manifest):
            raise BenchError(f"{manifest} is missing: run from the repository root")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if manifest == "Cargo.toml":
            cmd += ["--bin", "tim"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "tim"), os.path.join(release, "perfbench-probe")


class Run:
    """One benchmark run: its binaries, scratch directory and children."""

    def __init__(self, args, tim, probe):
        self.args, self.tim, self.probe = args, tim, probe
        self.dir = os.path.abspath(
            os.path.join(".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
        )
        os.makedirs(self.dir)
        self.graph = os.path.join(self.dir, "graph.timg")
        self.children = []
        self.attempted = 0
        self.failures = []
        self.stats_pools = []
        self.serve_argv = None
        self.probe_calls = []
        self.graph_size = None
        # Host-speed probe repetitions (see `calibrate`).
        self.cal = []

    def probe_json(self, *argv):
        argv = [self.probe, *map(str, argv)]
        self.probe_calls.append(argv)
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise BenchError(f"probe {argv[1]} failed with code {out.returncode}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def gen_graph(self):
        self.graph_size = self.probe_json(
            "gen", "--seed", GRAPH_SEED, "--n", NODES, "--out", self.graph
        )

    def calibrate(self):
        """Times the host-speed probe, between timed windows: a fixed
        piece of the benchmark's own work, so its time moves with the
        host and never with the program."""
        self.cal.extend(self.probe_json(
            "calibrate", "--bits", CAL_BITS, "--steps", CAL_STEPS, "--threads", NPROC,
            "--reps", CAL_REPS,
        )["times_s"])

    def oneshot(self, k, reps):
        return self.probe_json(
            "oneshot", "--graph", self.graph, "--k", k, "--eps", EPS, "--ell", ELL,
            "--seed", SERVER_SEED, "--threads", NPROC, "--reps", reps,
        )

    def reference(self, *argv):
        """A probe answer that depends only on the probe binary, the graph
        file and `argv`, computed once and kept under CACHE_DIR for later
        runs of the same build: the verification of an expensive answer
        then costs its first run only."""
        h = hashlib.sha256()
        for path in (self.probe, self.graph):
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
        h.update(json.dumps([str(x).replace(self.graph, "<graph>") for x in argv]).encode())
        path = os.path.join(CACHE_DIR, h.hexdigest() + ".json")
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            pass
        out = self.probe_json(*argv)
        os.makedirs(CACHE_DIR, exist_ok=True)
        with open(path + f".{os.getpid()}", "w") as f:
            json.dump(out, f)
        os.replace(path + f".{os.getpid()}", path)
        return out

    def answers(self, ks):
        """The `TimPlus::run(k)` reply for each k, keyed by `select k`."""
        out = self.reference(
            "answers", "--graph", self.graph, "--eps", EPS, "--ell", ELL,
            "--seed", SERVER_SEED, "--threads", NPROC, "--ks", ",".join(map(str, ks)),
        )
        return {f"select {k}": reply for k, reply in out["replies"].items()}

    def oneshot_row(self, m):
        """The reference row: ONESHOT_REPS timed `TimPlus::run(K_MAX)` into
        `m.oneshot`; returns the answer."""
        ref = self.oneshot(K_MAX, ONESHOT_REPS)
        m.oneshot.extend(ref["times_s"])
        return ref["reply"]

    def serve(self, *extra, threads=NPROC):
        server = Server(self, list(extra), threads)
        self.serve_argv = server.argv
        return server

    def check(self, what, got, want):
        """Counts one attempted operation; a wrong or error reply fails it."""
        self.attempted += 1
        ok = got in want if isinstance(want, (set, frozenset)) else got == want
        if not ok or got.startswith("error"):
            self.failures.append(f"{what}: got '{got[:120]}'")

    def cleanup(self):
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


class Server:
    """A `tim serve` child on 127.0.0.1:0."""

    def __init__(self, run, extra, threads):
        self.argv = [
            run.tim, "serve", run.graph, "--weights", "keep", "--eps", str(EPS),
            "--ell", str(ELL), "-k", str(K_MAX), "--seed", str(SERVER_SEED),
            "--addr", "127.0.0.1:0", "--threads", str(threads), "--quiet", "--admin", *extra,
        ]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        run.children.append(self.proc)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            raise BenchError(f"tim serve did not start: '{line.strip()}'")
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        return Conn(self.addr)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM for the server")

    def stop(self):
        self.proc.terminate()
        self.proc.wait(timeout=30)


class Conn:
    """One protocol connection; `ask` sends a line and times its reply."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=DEADLINE_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def ask(self, line):
        t = time.perf_counter()
        self.sock.sendall((line + "\n").encode())
        reply = self.rfile.readline()
        dt = time.perf_counter() - t
        if not reply:
            raise ConnectionError(f"connection closed on '{line}'")
        return reply.rstrip("\n"), dt

    def close(self):
        self.rfile.close()
        self.sock.close()


# ---------------------------------------------------------------------------
# Request streams, all drawn from the workload seed.


def rng_for(args, *tag):
    return random.Random(":".join(map(str, (args.workload, args.seed) + tag)))


def cheap_lines(rng):
    """Cheap reads: `select k fast` for every k, plus eval and marginal
    lines over random node labels."""
    lines = [f"select {k} fast" for k in range(1, K_MAX + 1)]
    ids = lambda: ",".join(map(str, rng.sample(range(NODES), rng.randint(1, 10))))
    lines += [f"eval {ids()}" for _ in range(CHEAP_LINES)]
    lines += [f"marginal {ids()} {rng.randrange(NODES)}" for _ in range(CHEAP_LINES)]
    return lines


def mix_script(rng, cheap, n):
    """A warm-mix connection's script: exactly the MIX shares of n lines,
    shuffled. Exact selects draw k uniformly from 1..K_MAX."""
    fast = [l for l in cheap if l.endswith(" fast")]
    by_verb = {
        "select": lambda: f"select {rng.randint(1, K_MAX)}",
        "select_fast": lambda: rng.choice(fast),
        "eval": lambda: rng.choice([l for l in cheap if l.startswith("eval")]),
        "marginal": lambda: rng.choice([l for l in cheap if l.startswith("marginal")]),
    }
    script = []
    for verb, share in MIX:
        script += [by_verb[verb]() for _ in range(round(share * n))]
    rng.shuffle(script)
    return script


def replan_order(rng):
    """Every k below K_MAX once, in seeded order: after a first `select
    K_MAX`, each of them needs a plan the server has not cached."""
    order = list(range(1, K_MAX))
    rng.shuffle(order)
    return [f"select {k}" for k in order]


def verb_of(line):
    if line.startswith("select"):
        return "select_fast" if line.endswith(" fast") else "select"
    return line.split()[0]


# ---------------------------------------------------------------------------
# Workloads. Each returns (setup seconds, measurements), where the
# measurements feed `end_to_end()`.


class Measure:
    def __init__(self):
        self.oneshot, self.first, self.exact, self.cheap = [], [], [], []
        self.scripts, self.rss, self.grow, self.cheap_max = [], [], [], []
        # Cold-start and restart-grow: a random arrival's waits while
        # replanning (see `arrival_waits`).
        self.waits = []


def timed_phase(run, m, server, a_lines, replans, cheap, rng):
    """From the spawn of `server`: connection B (`perfbench-probe reads`,
    a process of its own) sends cheap reads as a closed loop while
    connection A sends the first `select K_MAX`, then its script, also a
    closed loop. B stops when A is done. The first `replans` lines of A's
    script are the replanning window, from the first answer to their last
    reply, over which B's reads give `Measure.waits`. Records every
    latency; the caller checks the replies afterwards. Returns A's
    connection, its first answer, and A's and B's logs of (line, reply,
    seconds), and the script's wall time."""
    script = [rng.choice(cheap) for _ in range(READ_SCRIPT_LINES)]
    path = os.path.join(run.dir, "reads.txt")
    with open(path, "w") as f:
        f.write("\n".join(script) + "\n")
    host, port = server.addr
    argv = [run.probe, "reads", "--addr", f"{host}:{port}", "--script", path]
    run.probe_calls.append(argv)
    b = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    run.children.append(b)
    a_log = []
    try:
        if b.stdout.readline().strip() != "connected":
            raise BenchError("the cheap-read connection did not open")
        b0 = time.perf_counter()
        a = server.connect()
        first, _ = a.ask(f"select {K_MAX}")
        w0 = w1 = time.perf_counter()
        m.first.append(w0 - server.t0)
        for i, line in enumerate(a_lines):
            reply, dt = a.ask(line)
            a_log.append((line, reply, dt))
            if i < replans:
                w1 = time.perf_counter()
        script_s = time.perf_counter() - w0
    finally:
        b.stdin.close()
    out = b.stdout.read()
    if b.wait() != 0:
        raise BenchError(f"probe reads failed with code {b.returncode}")
    replies = json.loads(out.strip().splitlines()[-1])["log"]
    if not replies:
        raise BenchError("the cheap-read connection sent nothing")
    b_log = [(script[i % len(script)], r, ns / 1e9) for i, (_, ns, r) in enumerate(replies)]
    m.cheap.extend(dt for _, _, dt in b_log)
    m.cheap_max.append(max(dt for _, _, dt in b_log))
    reads = [(b0 + s / 1e9, b0 + (s + ns) / 1e9) for s, ns, _ in replies]
    m.waits.extend(arrival_waits(reads, w0, w1))
    return a, first, a_log, b_log, script_s


def check_reads(run, conn, b_log, before=None):
    """Checks cheap replies (B's, or cold-start's bursts) against the
    same lines asked on `conn` once the timed part is done, or
    (restart-grow) against the reply before the restart, which a read
    answered before the growth still sees. Every `select k` fast reply
    asked afterwards must be the k-prefix of `select K_MAX fast`."""
    after = {line: conn.ask(line)[0] for line in sorted({line for line, _, _ in b_log})}
    top = conn.ask(f"select {K_MAX} fast")[0].split()[1:]
    for line, reply in after.items():
        if line.endswith(" fast"):
            k = int(line.split()[1])
            run.check(f"{line} (prefix)", reply, " ".join(["seeds:"] + top[:k]))
    for line, reply, _ in b_log:
        run.check(line, reply, {after[line]} | ({before[line]} if before else set()))


def cheap_burst(run, m, server, cheap, rng):
    """CHEAP_BURST cheap reads, drawn from `cheap`, over one closed-loop
    connection of `perfbench-probe load` with nothing else in flight;
    records their latencies and returns the (line, reply, seconds) log."""
    script = [rng.choice(cheap) for _ in range(CHEAP_BURST)]
    path = os.path.join(run.dir, "burst.txt")
    with open(path, "w") as f:
        f.write("\n".join(script) + "\n")
    host, port = server.addr
    out = run.probe_json("load", "--addr", f"{host}:{port}", "--scripts", path)
    log = [(line, reply, ns / 1e9) for line, (ns, reply) in zip(script, out["conns"][0])]
    if len(log) != len(script):
        raise BenchError("the load client stopped before its script ended")
    m.cheap.extend(dt for _, _, dt in log)
    return log


def cold_start(run):
    """Cold spawn: the reference row, then a fresh server's first answer,
    then every other plan, with a burst of cheap reads before and after
    the replans."""
    args, m = run.args, Measure()
    setups = []
    for _ in range(COLD_SETUPS):
        t = time.perf_counter()
        run.gen_graph()
        setups.append(time.perf_counter() - t)
    cheap = cheap_lines(rng_for(args, "cheap"))
    want = run.answers(range(1, K_MAX))
    run.calibrate()
    for cycle in range(max(1, round(args.seconds / COLD_CYCLE_S))):
        reference = run.oneshot_row(m)
        run.calibrate()
        server = run.serve()
        a = server.connect()
        first, _ = a.ask(f"select {K_MAX}")
        m.first.append(time.perf_counter() - server.t0)
        a.close()  # frees the server's worker for the burst on a 1-CPU host
        reads = cheap_burst(run, m, server, cheap, rng_for(args, "reads", cycle, 0))
        a = server.connect()
        t = time.perf_counter()
        a_log = [(line, *a.ask(line)) for line in replan_order(rng_for(args, "replan", cycle))]
        m.scripts.append(time.perf_counter() - t)
        m.exact.extend(dt for _, _, dt in a_log)
        a.close()
        reads += cheap_burst(run, m, server, cheap, rng_for(args, "reads", cycle, 1))
        a = server.connect()
        check_reads(run, a, reads)
        run.stats_pools.append(a.ask("stats pools")[0])
        m.rss.append(server.peak_rss_mb())
        a.close()
        server.stop()
        run.calibrate()
        run.check(f"select {K_MAX} (TimPlus::run)", first, reference)
        for line, reply, _ in a_log:
            run.check(f"{line} (TimPlus::run)", reply, want[line])
    m.cheap_max.append(max(m.cheap))
    if run.oneshot_row(m) != reference:
        raise BenchError("TimPlus::run answered differently on a repeated run")
    run.calibrate()
    return median(setups), m


def warm_mix(run):
    """Steady state: every plan cached, nproc connections each sending a
    seeded mix of exact selects and cheap reads. The run sets up WARM_SETUPS
    fresh servers and sends a share of the scripts to each, so its timings
    come from stretches far apart."""
    args, m = run.args, Measure()
    cheap = cheap_lines(rng_for(args, "cheap"))
    n = round(args.seconds * MIX_LINES_PER_S / WARM_SETUPS)
    run.gen_graph()  # for the reference row; each set-up generates it again
    setups, want, reference = [], None, None
    for i in range(WARM_SETUPS):
        run.calibrate()
        ref = run.oneshot_row(m)
        if reference is not None and ref != reference:
            raise BenchError("TimPlus::run answered differently on a repeated run")
        reference = ref
        run.calibrate()
        t = time.perf_counter()
        run.gen_graph()
        server = run.serve()
        c = server.connect()
        first, _ = c.ask(f"select {K_MAX}")
        m.first.append(time.perf_counter() - server.t0)
        lines = [f"select {k}" for k in range(1, K_MAX + 1)] + cheap
        replies = {line: c.ask(line)[0] for line in lines}
        setups.append(time.perf_counter() - t)
        # The server serves one connection per worker thread: free it for
        # the load client.
        c.close()
        run.check(f"select {K_MAX} (TimPlus::run, set-up {i + 1})", first, reference)
        if want is None:
            want = replies
            top = want[f"select {K_MAX} fast"].split()[1:]
            for k in range(1, K_MAX + 1):  # each fast answer is a prefix of the deepest
                run.check(f"select {k} fast (prefix)", want[f"select {k} fast"],
                          " ".join(["seeds:"] + top[:k]))
        else:  # a fresh server on the same inputs answers the same
            for line in lines:
                run.check(f"{line} (set-up {i + 1})", replies[line], want[line])

        scripts = [mix_script(rng_for(args, "mix", i, c), cheap, n) for c in range(NPROC)]
        paths = [os.path.join(run.dir, f"mix-{c}.txt") for c in range(NPROC)]
        for path, script in zip(paths, scripts):
            with open(path, "w") as f:
                f.write("\n".join(script) + "\n")
        host, port = server.addr
        out = run.probe_json("load", "--addr", f"{host}:{port}", "--scripts", ",".join(paths))
        m.scripts.append(out["wall_s"])
        for script, log in zip(scripts, out["conns"]):
            if len(log) != len(script):
                raise BenchError("the load client stopped before its script ended")
            for line, (ns, reply) in zip(script, log):
                (m.exact if verb_of(line) == "select" else m.cheap).append(ns / 1e9)
                run.check(line, reply, want[line])
        c = server.connect()
        run.stats_pools.append(c.ask("stats pools")[0])
        c.close()
        m.rss.append(server.peak_rss_mb())
        server.stop()
    m.cheap_max.append(max(m.cheap))
    run.calibrate()
    if run.oneshot_row(m) != reference:
        raise BenchError("TimPlus::run answered differently on a repeated run")
    run.calibrate()
    return median(setups), m


def restart_grow(run):
    """Restart over a persisted pool store: restore, replan every k, grow
    to select 1000, while a second connection keeps reading."""
    args, m = run.args, Measure()
    pools = os.path.join(run.dir, "pools")
    threads = max(2, NPROC)
    t = time.perf_counter()
    run.gen_graph()
    server = run.serve("--pool-dir", pools, "--persist-pools", threads=threads)
    c = server.connect()
    replans = replan_order(rng_for(args, "replan"))
    cheap = cheap_lines(rng_for(args, "cheap"))
    before = {line: c.ask(line)[0] for line in [f"select {K_MAX}"] + replans + cheap}
    run.stats_pools.append(c.ask("stats pools")[0])
    c.close()
    server.stop()
    setup = time.perf_counter() - t
    run.calibrate()
    reference = run.oneshot_row(m)

    # Without --persist-pools the store stays as set-up left it, so every
    # spawn restores the same pool. All but the last stop at the first
    # answer; the last replans every k and grows.
    grow = f"select {GROW_K}"
    for r in range(RESTARTS):
        last = r == RESTARTS - 1
        server = run.serve("--pool-dir", pools, threads=threads)
        a_lines = replans + [grow] if last else []
        a, first, a_log, b_log, script_s = timed_phase(
            run, m, server, a_lines, len(replans) if last else 0, cheap,
            rng_for(args, "reads", r),
        )
        run.check(f"select {K_MAX} after restart", first, before[f"select {K_MAX}"])
        # A cheap read answered after the growth sees the grown pool: it
        # must equal either the pre-restart reply or the reply after growth.
        check_reads(run, a, b_log, before)
        if last:
            m.scripts.append(script_s)
            run.stats_pools.append(a.ask("stats pools")[0])
            m.rss.append(server.peak_rss_mb())
        a.close()
        server.stop()
        run.calibrate()
    grown = ""
    for line, reply, dt in a_log:
        if line == grow:
            grown = reply
            m.grow.append(dt)
        else:
            m.exact.append(dt)
            run.check(f"{line} after restart", reply, before[line])
    if run.oneshot_row(m) != reference:
        raise BenchError("TimPlus::run answered differently on a repeated run")
    run.check(f"select {K_MAX} (TimPlus::run)", first, reference)
    ref_grow = run.reference(
        "oneshot", "--graph", run.graph, "--k", GROW_K, "--eps", EPS, "--ell", ELL,
        "--seed", SERVER_SEED, "--threads", NPROC, "--reps", 1,
    )
    run.check(f"{grow} (TimPlus::run)", grown, ref_grow["reply"])
    return setup, m


WORKLOADS = {"cold-start": cold_start, "warm-mix": warm_mix, "restart-grow": restart_grow}


def speed_factor(cal):
    """CAL_REF_S over the median host-speed probe repetition of a run.

    The shared host this was built on runs everything up to 1.5x slower
    for a minute at a time, and two runs a few minutes apart see different
    hosts. The probe is the benchmark's own code, timed at six or more
    points between the timed windows of the same run, so scaling every
    timing by this factor cancels most of the host's speed of the moment
    and leaves the program's. The raw timings stay in the report."""
    return CAL_REF_S / median(cal)


def end_to_end(setup, m, speed):
    """Every end-to-end metric, with its samples' median and tail; every
    timing scaled by `speed` (see `speed_factor`). `samples` keeps the
    raw timings."""
    exact = timing(m.exact)
    cheap = arrival_timing(m.waits) if m.waits else timing(m.cheap)
    metrics = {
        "setup_s": setup * speed,
        "oneshot_s": median(m.oneshot) * speed,
        "first_answer_s": median(m.first) * speed,
        "exact_p50_ms": exact["p50"] * 1e3 * speed,
        "exact_tail_ms": exact["tail"] * 1e3 * speed,
        "cheap_p50_ms": cheap["p50"] * 1e3 * speed,
        "cheap_tail_ms": cheap["tail"] * 1e3 * speed,
        "script_s": median(m.scripts) * speed,
        "peak_rss_mb": median(m.rss),
    }
    ms = lambda d: {k: v * 1e3 if k in ("p50", "tail") else v for k, v in d.items()}
    samples = {
        "oneshot_s": m.oneshot,
        "first_answer_s": m.first,
        "exact_ms": ms(exact),
        "cheap_ms": ms(cheap),
        "script_s": m.scripts,
        "replies_per_s": (len(m.exact) + len(m.cheap)) / sum(m.scripts),
        "peak_rss_mb": m.rss,
        "cheap_reads_ms": ms(timing(m.cheap)),
        "cheap_max_ms": [x * 1e3 for x in m.cheap_max],
        "grow_answer_s": m.grow,
        "setup_s": setup,
        "speed_factor": speed,
    }
    return metrics, samples


# ---------------------------------------------------------------------------
# The traced run.


def per_layer(run):
    """Runs the in-process probe over this seed's inputs and streams and
    turns its spans and counts into every per-layer metric."""
    args = run.args
    run.gen_graph()
    cheap = cheap_lines(rng_for(args, "cheap"))
    files = {
        "mix": mix_script(rng_for(args, "mix", 0), cheap, TRACE_MIX_LINES),
        "cheap": cheap,
        "restart": [f"select {K_MAX}"] + replan_order(rng_for(args, "replan")) + [f"select {GROW_K}"],
    }
    for name, lines in files.items():
        with open(os.path.join(run.dir, f"{name}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
    os.makedirs(os.path.join(".bench_run", "reports"), exist_ok=True)
    spans_path = os.path.abspath(
        os.path.join(".bench_run", "reports", f"spans-{args.workload}-seed{args.seed}.jsonl")
    )
    out = run.probe_json(
        "trace", "--graph", run.graph, "--eps", EPS, "--ell", ELL, "--seed", SERVER_SEED,
        "--k-max", K_MAX, "--grow-k", GROW_K, "--threads", NPROC,
        "--mix", os.path.join(run.dir, "mix.txt"),
        "--cheap", os.path.join(run.dir, "cheap.txt"),
        "--restart", os.path.join(run.dir, "restart.txt"),
        "--dir", run.dir, "--spans", spans_path,
    )
    run.attempted += out["replays"]
    run.failures.extend(out["failures"])
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    roots = {s["req"]: s["name"] for s in spans if s["name"].startswith("request.")}
    ms = defaultdict(list)
    for s in spans:
        stream = roots.get(s["req"], "")
        key = s["name"] + (":warm" if stream.startswith("request.warm") else "")
        ms[key].append((s["end_ns"] - s["start_ns"]) / 1e6)
    c = out["counts"]

    # Per verb: in-process session latency, and TCP minus session paired
    # line by line (the probe ran both on every line).
    session, wire = defaultdict(list), defaultdict(list)
    for (verb, u), (_, w) in zip(out["session_ns"], out["tcp_ns"]):
        session[verb].append(u / 1e6)
        wire[verb].append((w - u) / 1e6)
    grow_s = median(ms["sample.grow"]) / 1e3
    metrics = {
        "graph.load_ms": median(ms["graph.load"]),
        "core.plan_ms": median(ms["core.plan"]),
        "core.plan_rr_sets": c["core.plan_rr_sets"],
        "sample.k50_ms": median(ms["sample.k_max"]),
        "sample.k1000_ms": median(ms["sample.grow"]),
        "sample.sets_per_s": c["sample.grow_sets"] / grow_s,
        "engine.warm_ms": median(ms["engine.warm"]),
        "engine.pool_theta": c["engine.pool_theta"],
        "engine.theta_useful_ratio": c["engine.theta_useful"] / c["engine.pool_theta"],
        "engine.pool_mb": c["engine.pool_bytes"] / 1e6,
        "engine.exact_select_ms": median(ms["engine.exact_select"]),
        "coverage.greedy_ms": median(ms["coverage.greedy"]),
        "coverage.evals_per_round": c["coverage.evals"] / c["coverage.rounds"],
        "engine.fast_select_us": median(ms["engine.select_fast:warm"]) * 1e3,
        "engine.eval_us": median(ms["engine.eval:warm"]) * 1e3,
        "engine.marginal_us": median(ms["engine.marginal:warm"]) * 1e3,
        "engine.restore_ms": median(ms["engine.restore"]),
        "engine.spill_ms": median(ms["engine.spill"]),
        "engine.pool_file_mb": c["engine.pool_file_bytes"] / 1e6,
        "engine.grow_ms": median(ms["engine.grow"]),
        "engine.read_wait_ms": max(ms["engine.read_during_write"]),
        "server.parse_us": median(ms["server.parse:warm"]) * 1e3,
        "server.route_us": median(ms["server.route:warm"]) * 1e3,
    }
    for verb in ("select", "select_fast", "eval", "marginal"):
        metrics[f"server.session_us.{verb}"] = median(session[verb]) * 1e3
        metrics[f"server.wire_ms.{verb}"] = median(wire[verb])
    for k in ("hits", "misses", "builds", "loads"):
        metrics[f"server.cache.{k}"] = c[f"server.cache.{k}"]
    traced = sum(x for key, xs in ms.items() if key.startswith("request.warm") for x in xs)
    untraced = sum(ns for _, ns in out["session_ns"]) / 1e6
    detail = {
        "spans": spans_path,
        "self_times": self_times(spans),
        "tracing_overhead": {
            "traced_replay_ms": traced,
            "untraced_replay_ms": untraced,
            "overhead_pct": 100 * (traced - untraced) / untraced,
        },
        "counts": c,
        "exact_minus_greedy_ms": metrics["engine.exact_select_ms"] - metrics["coverage.greedy_ms"],
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def run_context(run):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "kernel": platform.release(),
        "commit": commit,
        "workload": run.args.workload,
        "seed": run.args.seed,
        "graph_seed": GRAPH_SEED,
        "graph": run.graph_size,
        "server_seed": SERVER_SEED,
        "serve_argv": run.serve_argv,
        "probe_calls": run.probe_calls,
        "python": platform.python_version(),
    }


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            check_name(metric["name"])
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    self_test()
    if args.self_test:
        print("self-test ok", file=sys.stderr)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    def on_signal(signum, _frame):
        raise BenchError(f"stopped by signal {signum} (deadline {DEADLINE_S} s)")

    # A deadline or a SIGTERM unwinds through `finally`, which stops the
    # server children before the run exits.
    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    run = None
    try:
        spec = load_spec()
        tim, probe = build()
        signal.alarm(DEADLINE_S)
        run = Run(args, tim, probe)
        if args.trace:
            metrics, detail = per_layer(run)
            group = "per_layer"
        else:
            setup, m = WORKLOADS[args.workload](run)
            metrics, detail = end_to_end(setup, m, speed_factor(run.cal))
            detail["calibrate_s"] = run.cal
            group = "end_to_end"
        signal.alarm(0)
        units = {x["name"]: x["unit"] for x in spec[group]}
        if set(units) != set(metrics):
            raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
        report = {
            "context": run_context(run),
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failed_share": len(run.failures) / max(run.attempted, 1),
            "failures": run.failures[:50],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "detail": detail,
            "stats_pools": run.stats_pools,
            "layer_moves": LAYER_MOVES if args.trace else None,
        }
        os.makedirs(os.path.join(".bench_run", "reports"), exist_ok=True)
        path = os.path.join(
            ".bench_run", "reports",
            f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        )
        with open(path, "w") as f:
            json.dump(report, f, indent=1)
        run.probe_json("check-json", path)
    except (BenchError, OSError, ValueError, KeyError, ConnectionError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if run is not None:
            run.cleanup()
    for line in report["failures"]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    for k, v in report["metrics"].items():
        print(f"{k:32s} {v['value']:14.4f} {v['unit']}", file=sys.stderr)
    print(f"report: {path}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
