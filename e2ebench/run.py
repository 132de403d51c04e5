"""The repository benchmark: three workloads, end-to-end metrics, traced ledger.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` measures the same
workload and seed untraced and then traced, and reports the per-layer
ledger plus the tracing overhead.  Every answer is checked against the
library; the last line of stdout is the JSON result, and the full
result with its provenance is written to ``.bench_results/``.

Workloads (see ``e2ebench/README.md`` and ``layers.json``):

* ``cold_scalar`` single-process ``repro-serve``, every query distinct
* ``cluster_mix`` ``repro-serve --cluster 2``, Zipf over 8,192 queries
* ``paper_regen`` cold ``repro-paper --jobs 2 --output DIR``, repeated
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import loadgen
import spans
import streams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

#: At most nproc sender threads and connections, and never more than two,
#: so the offered load is the same on any host with two or more CPUs.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))

#: Fixed open-loop offered rates (queries/s) — never calibrated per run.
#: Each keeps the two connections mostly idle (under ~20% busy), so a slow
#: stretch of the host does not turn into queueing that multiplies it.
RATES = {"cold_scalar": 100.0, "cluster_mix": 100.0}
OPEN_SHARE = 0.6           # of --seconds; the closed loop gets the rest
SETUP_REPEATS = 5          # set-ups per run; setup_s is their median
#: Requests sent once, back to back, before timing starts.
WARM_REQUESTS = {"cold_scalar": 300, "cluster_mix": 1000}
#: Closed-loop requests drawn per second of the run: over ten times what
#: the closed loop completes on a two-vCPU host.  A program fast enough to
#: exhaust cold_scalar's distinct requests ends the chunk early, and its
#: throughput is then taken over the time the chunk used.
CLOSED_REQUESTS_PER_S = 1500
#: The timed window alternates open- and closed-loop chunks this many
#: times, so both phases sample the whole run, not one half of it each.
CYCLES = 8
ROUTER_HOP_PROBES = 200
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0

#: Metric names and units come from BENCHMARK.json, the one list of them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

SUBSTRATES = ("hw_registry", "k_year", "ozaki_splits", "spack_index",
              "workload_profiles")
ARTIFACTS = ("fig1", "fig2", "fig3", "fig4", "scaling", "sec3a", "table1",
             "table2", "table3", "table4", "table5", "table6", "table8")
UNITS = dict(END_TO_END + PER_LAYER)


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, server never ready)."""


# -- processes -------------------------------------------------------------------


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    return env


def descendants(pid: int) -> list[int]:
    """Child processes of ``pid`` (one level: the cluster's workers)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro-serve`` process (single or cluster router) we started."""

    def __init__(self, argv: list[str], tmp: Path):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(tmp), cwd=str(tmp),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        self.log: list[str] = []
        self._banner: queue.Queue = queue.Queue()
        # Drains the server's output for its whole life, so a chatty
        # server never blocks on a full pipe.
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()
        self.url = self._await_banner()
        host, port = self.url.rsplit("/", 1)[-1].split(":")
        self.host, self.port = host, int(port)
        self.ready_s = self._await_ready()

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                self._banner.put(match.group(1))
        self._banner.put(None)

    def _await_banner(self) -> str:
        try:
            url = self._banner.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            url = None
        if url is None:
            self.stop()
            raise BenchError(
                "server never announced its address:\n" + "".join(self.log))
        return url

    def _await_ready(self) -> float:
        deadline = self.t0 + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            conn = loadgen.connect(self.host, self.port, timeout_s=5.0)
            try:
                status, _ = loadgen.request(conn, "GET", "/readyz")
            except OSError:
                status = 0
            finally:
                conn.close()
            if status == 200:
                return time.perf_counter() - self.t0
            time.sleep(0.005)
        self.stop()
        raise BenchError("server never became ready")

    def get(self, path: str):
        conn = loadgen.connect(self.host, self.port)
        try:
            status, body = loadgen.request(conn, "GET", path)
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def rss_mb(self) -> float:
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (graceful drain) unless ``graceful`` is false, then
        SIGKILL whatever is left, cluster workers included (they run in
        sessions of their own), and wait until every process has ended."""
        children = descendants(self.proc.pid)
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        await_exit(children)
        self._reader.join(STOP_TIMEOUT_S)
        self.proc.stdout.close()


def await_exit(pids, timeout_s: float = STOP_TIMEOUT_S) -> None:
    """Wait until none of ``pids`` is running (ended or a zombie)."""
    deadline = time.perf_counter() + timeout_s
    for pid in pids:
        while time.perf_counter() < deadline:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                break
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                break
            time.sleep(0.01)
        else:
            raise BenchError(f"process {pid} did not exit")


def serve_argv(workload: str, tmp: Path, spans_file: Path | None) -> list[str]:
    args = ["--port", "0"]
    if workload == "cluster_mix":
        args = ["--cluster", "2", "--port", "0",
                "--snapshot-dir", str(tmp / "snapshots")]
    if spans_file is not None:
        return [sys.executable, str(LAUNCH), str(spans_file), "serve", *args]
    return [sys.executable, "-m", "repro.serve.http", *args]


# -- helpers -----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values, q: float = 0.99):
    """``(value, samples_beyond)`` of the ``q`` percentile, or
    ``(None, samples_beyond)`` when the helper refuses it."""
    beyond = loadgen.samples_beyond(len(values), q)
    try:
        return loadgen.percentile(values, q), beyond
    except loadgen.TooFewSamples:
        return None, beyond


def host_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = {"sha": "unknown", "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0:
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
            )
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git": git,
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def batch_sum(summary: dict) -> float:
    return summary.get("mean", 0.0) * summary.get("count", 0)


def engine_ledger(counters: dict, batch_count: float, batch_total: float):
    requests = counters.get("requests", 0)
    return {
        "engine.hit_ratio": counters.get("cache_hits", 0) / requests
        if requests else 0.0,
        "engine.coalesce_ratio": counters.get("coalesced", 0) / requests
        if requests else 0.0,
        "engine.batches": counters.get("batches", 0),
        "engine.batch_size_mean": batch_total / batch_count
        if batch_count else 0.0,
        "engine.shed": counters.get("shed", 0),
        "engine.admission_rejected": counters.get("admission_rejected", 0),
        "engine.timeouts": counters.get("timeouts", 0),
        "engine.errors": counters.get("errors", 0),
        "engine.retries": counters.get("retries", 0),
    }


# -- correctness -------------------------------------------------------------------


class Oracle:
    """Direct library answers, memoised per canonical request."""

    def __init__(self):
        self.answers: dict[str, str] = {}
        self.checked = 0
        self.mismatches: list[str] = []

    def expected(self, kind, params) -> str:
        key = streams.request_key(kind, params)
        if key not in self.answers:
            self.answers[key] = streams.canonical(
                streams.direct_answer(kind, params))
        return self.answers[key]

    def check(self, kind, params, served_value):
        self.checked += 1
        if streams.canonical(served_value) != self.expected(kind, params):
            self.mismatches.append(streams.request_key(kind, params))


def check_phase(log: loadgen.PhaseLog, requests, oracle: Oracle) -> None:
    for index, _due, _sent, _done, status, body in log.records:
        if status == 200:
            kind, params = requests[index % len(requests)]
            oracle.check(kind, params, json.loads(body)["value"])


# -- span analysis -----------------------------------------------------------------


def span_ledger(raw_spans, window, client_rtts_ms):
    """Per-layer numbers from the spans recorded inside ``window``."""
    lo, hi = window
    rows = [s for s in raw_spans if s[4] >= lo and s[5] <= hi]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in rows:
        by_name.setdefault(s[3], []).append(s)
        children.setdefault(s[1], []).append(s)

    def total_ms(name):
        return sum(s[5] - s[4] for s in by_name.get(name, ())) * 1e3

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    handler_by_hash: dict[str, list] = {}
    for s in by_name.get("handler", ()):
        handler_by_hash.setdefault(s[6], []).append(s)
    for s in by_name.get("batch_handler", ()):
        for h in s[6] or ():
            handler_by_hash.setdefault(h, []).append(s)
    linked_by_hash: dict[str, list] = {}
    for name in ("verify_answer", "seal"):
        for s in by_name.get(name, ()):
            linked_by_hash.setdefault(s[6], []).append(s)

    engine_self, waits = [], []
    for sub in by_name.get("QueryEngine.submit", ()):
        kids = children.get(sub[0], [])
        intervals = [(k[4], k[5]) for k in kids]
        build = next((k for k in kids if k[3] == "QueryRegistry.build"), None)
        if build is not None and build[6] is not None:
            members = [build[6]]
            for hs in handler_by_hash.get(build[6], ()):
                if build[5] < hs[5] <= sub[5]:
                    intervals.append((build[5], hs[5]))
                    if hs[4] >= build[5]:
                        waits.append(hs[4] - build[5])
                    if hs[3] == "batch_handler":
                        members = hs[6]
                    break
            # A batch member also waits while its co-members' answers are
            # checked and sealed: that is integrity time, not engine time.
            for h in members:
                intervals += [(x[4], x[5]) for x in linked_by_hash.get(h, ())]
        engine_self.append(spans.self_time(sub[4], sub[5], intervals))

    client_spans = by_name.get("ServeClient.query", [])
    hops = [
        spans.self_time(c[4], c[5], [(k[4], k[5]) for k in children.get(c[0], ())
                                     if k[3] == "QueryEngine.submit"])
        for c in client_spans
    ]
    query_ms = [(s[5] - s[4]) * 1e3 for s in by_name.get("ServeClient.query", ())]
    answers = len(by_name.get("handler", ())) + sum(
        len(s[6] or ()) for s in by_name.get("batch_handler", ())
    )
    handler_ms = total_ms("handler") + total_ms("batch_handler")
    builds = by_name.get("QueryRegistry.build", ())
    return {
        "http.self_ms": (mean(client_rtts_ms) - mean(query_ms))
        if query_ms and client_rtts_ms else 0.0,
        "client.hop_us": mean(hops) * 1e6,
        "queries.build_calls": len(builds),
        "queries.build_us": mean([s[5] - s[4] for s in builds]) * 1e6,
        "engine.self_us": mean(engine_self) * 1e6,
        "engine.wait_ms": mean(waits) * 1e3,
        "handlers.calls": len(by_name.get("handler", ())),
        "handlers.batch_calls": len(by_name.get("batch_handler", ())),
        "handlers.busy_ms": handler_ms,
        "handlers.us_per_answer": handler_ms * 1e3 / answers if answers else 0.0,
        "arrays.evaluate_calls": len(by_name.get("SweepGrid.evaluate", ())),
        "arrays.busy_ms": total_ms("SweepGrid.evaluate"),
        "extrapolate.build_machine_calls": len(by_name.get("build_machine", ())),
        "extrapolate.busy_ms": total_ms("build_machine"),
        "integrity.answer_checks": len(by_name.get("verify_answer", ())),
        "integrity.seals": len(by_name.get("seal", ())),
        "integrity.read_verifies": len(by_name.get("ResultEnvelope.verify", ())),
        "integrity.busy_ms": total_ms("verify_answer") + total_ms("seal")
        + total_ms("ResultEnvelope.verify"),
        "store.write_ms": total_ms("durable_write"),
    }


def kernel_delta(samples, window) -> int:
    lo, hi = window
    before = [v for t, v in samples if t <= lo]
    after = [v for t, v in samples if t >= hi]
    if not before or not after:
        raise BenchError("kernel-invocation samples do not bracket the window")
    return after[0] - before[-1]


# -- HTTP workloads ----------------------------------------------------------------


def http_streams(workload: str, seed: int, seconds: float):
    """(warm, open_requests, arrivals, closed_requests, closed_wrap)."""
    rng = random.Random(f"{workload}:{seed}")
    arrivals = loadgen.poisson_schedule(
        RATES[workload], seconds * OPEN_SHARE, rng)
    closed_count = int(CLOSED_REQUESTS_PER_S * seconds)
    if workload == "cold_scalar":
        seen: set = set()
        warm = streams.cold_requests(WARM_REQUESTS[workload], rng, seen)
        open_reqs = streams.cold_requests(len(arrivals), rng, seen)
        closed = streams.cold_requests(closed_count, rng, seen)
        return warm, open_reqs, arrivals, closed, False
    pool = streams.popularity_order(streams.cluster_pool())
    warm = streams.zipf_draws(pool, WARM_REQUESTS[workload], rng)
    open_reqs = streams.zipf_draws(pool, len(arrivals), rng)
    closed = streams.zipf_draws(pool, closed_count, rng)
    return warm, open_reqs, arrivals, closed, True


def metrics_snapshot(server: Server, cluster: bool):
    m = server.get("/metrics")
    if not cluster:
        return m["counters"], m["batch_size"], None
    batch = {"count": 0, "mean": 0.0}
    total = 0.0
    for shard in m["shards"].values():
        snap = shard.get("metrics") or {}
        summary = snap.get("batch_size", {})
        batch["count"] += summary.get("count", 0)
        total += batch_sum(summary)
    batch["mean"] = total / batch["count"] if batch["count"] else 0.0
    return m["aggregate"]["counters"], batch, m["cluster"]["router"]["counters"]


def http_pass(workload, seed, seconds, tmp, *, setups, traced, oracle):
    """Boot, warm, open loop, closed loop; returns the measurements."""
    cluster = workload == "cluster_mix"
    warm, open_reqs, arrivals, closed_reqs, wrap = http_streams(
        workload, seed, seconds)
    open_bodies = [streams.encode(k, p) for k, p in open_reqs]
    closed_bodies = [streams.encode(k, p) for k, p in closed_reqs]
    spans_file = tmp / "spans.json" if traced and not cluster else None

    setup_times = []
    for attempt in range(setups):
        server = Server(serve_argv(workload, tmp, spans_file), tmp)
        setup_times.append(server.ready_s)
        if attempt < setups - 1:
            server.stop(graceful=False)  # booted only to time the set-up
    out = {"setup_times_s": setup_times}
    warm_log = loadgen.PhaseLog("warm")
    open_log = loadgen.PhaseLog("open")
    closed_log = loadgen.PhaseLog("closed")
    open_chunk = seconds * OPEN_SHARE / CYCLES
    closed_chunk = seconds * (1 - OPEN_SHARE) / CYCLES
    edges = [bisect.bisect_left(arrivals, c * open_chunk) for c in range(CYCLES)]
    edges.append(len(arrivals))
    cursor = itertools.count()
    try:
        conns = [loadgen.connect(server.host, server.port)
                 for _ in range(CONNECTIONS)]
        loadgen.open_loop(conns, [streams.encode(k, p) for k, p in warm],
                          [0.0] * len(warm), warm_log, range(len(warm)))
        gc.collect()
        gc.disable()  # no collector pauses in the generator while timing
        time.sleep(0.1)
        snaps = [metrics_snapshot(server, cluster)]
        time.sleep(0.1)
        for c in range(CYCLES):
            loadgen.open_loop(conns, open_bodies, arrivals, open_log,
                              range(edges[c], edges[c + 1]), c * open_chunk)
            snaps.append(metrics_snapshot(server, cluster))
            loadgen.closed_loop(conns, closed_bodies, closed_chunk,
                                closed_log, cursor, wrap)
            snaps.append(metrics_snapshot(server, cluster))
        time.sleep(0.1)
        gc.enable()
        for conn in conns:
            conn.close()
        out["rss_mb"] = server.rss_mb()
        if traced and cluster:
            out["router_hop_ms"] = router_hop_ms(server, open_reqs)
            out["router"] = counter_delta(snaps[0][2], snaps[-1][2])
        phase_counters = {"open": {}, "closed": {}}
        for i in range(1, len(snaps)):
            phase = phase_counters["open" if i % 2 else "closed"]
            for k, v in counter_delta(snaps[i - 1][0], snaps[i][0]).items():
                phase[k] = phase.get(k, 0) + v
        out["engine_counters"] = phase_counters
        b0, b2 = snaps[0][1], snaps[-1][1]
        out["batch"] = (b2["count"] - b0["count"], batch_sum(b2) - batch_sum(b0))
    finally:
        gc.enable()
        server.stop()
    out.update(warm=warm_log, open=open_log, closed=closed_log,
               window=(open_log.started, closed_log.ended),
               open_requests=open_reqs, closed_requests=closed_reqs)
    if spans_file is not None:
        out["spans"] = json.loads(spans_file.read_text())
    for log, reqs in ((warm_log, warm), (open_log, open_reqs),
                      (closed_log, closed_reqs)):
        check_phase(log, reqs, oracle)
    if cluster:
        out["single_process_mismatches"] = single_process_check(
            [open_log, closed_log], [open_reqs, closed_reqs])
    return out


def single_process_check(logs, request_lists) -> int:
    """Cluster answers must equal what a single-process engine serves."""
    from repro.serve import ServeClient

    served: dict[str, str] = {}
    for log, reqs in zip(logs, request_lists):
        for index, *_rest, status, body in log.records:
            if status == 200:
                kind, params = reqs[index % len(reqs)]
                served[streams.request_key(kind, params)] = streams.canonical(
                    json.loads(body)["value"])
    keys = sorted(served)
    requests = [(json.loads(k)["kind"], json.loads(k)["params"]) for k in keys]
    with ServeClient(cache_size=0, max_queue=1024) as client:
        answers = []
        for start in range(0, len(requests), 512):
            answers += client.query_many(requests[start:start + 512])
    return sum(
        1 for key, answer in zip(keys, answers)
        if streams.canonical(answer.value) != served[key]
    )


def router_hop_ms(server: Server, requests) -> float:
    """Cluster RTT minus direct-to-owning-shard RTT, same cached query."""
    shards = server.get("/shards")["shards"]
    via_router = loadgen.connect(server.host, server.port)
    direct = {}
    router_rtt, shard_rtt = [], []
    try:
        for kind, params in requests[:ROUTER_HOP_PROBES]:
            body = streams.encode(kind, params)
            status, reply = loadgen.request(via_router, "POST", "/query", body)
            if status != 200:
                continue
            sid = json.loads(reply)["shard"]
            if sid not in direct:
                host, port = shards[str(sid)]["url"].rsplit("/", 1)[-1].split(":")
                direct[sid] = loadgen.connect(host, int(port))
            t0 = time.perf_counter()
            loadgen.request(via_router, "POST", "/query", body)
            t1 = time.perf_counter()
            loadgen.request(direct[sid], "POST", "/query", body)
            t2 = time.perf_counter()
            router_rtt.append(t1 - t0)
            shard_rtt.append(t2 - t1)
    finally:
        via_router.close()
        for conn in direct.values():
            conn.close()
    return (median(router_rtt) - median(shard_rtt)) * 1e3


def latencies_ms(log: loadgen.PhaseLog):
    return [(r[3] - r[1]) * 1e3 for r in log.succeeded()]


def chunk_p50s(log: loadgen.PhaseLog) -> list[float]:
    """Each open-loop chunk's median latency."""
    ok = log.succeeded()
    return [
        median([(r[3] - r[1]) * 1e3 for r in ok if start <= r[1] <= end])
        for start, end in log.chunks
    ]


def chunk_rates(log: loadgen.PhaseLog) -> list[float]:
    """Each closed-loop chunk's answers/s."""
    done = sorted(r[3] for r in log.succeeded())
    return [
        (bisect.bisect_right(done, end) - bisect.bisect_left(done, start))
        / (end - start)
        for start, end in log.chunks
    ]


def http_summary(workload, p):
    open_lat = latencies_ms(p["open"])
    p99, beyond = tail(open_lat)
    closed_ok = len(p["closed"].succeeded())
    late = [(r[2] - r[1]) * 1e3 for r in p["open"].records]
    late_p99, late_beyond = tail(late)
    return {
        "p50_ms": median(open_lat),
        "p99_ms": p99,
        "throughput_qps": closed_ok / sum(
            end - start for start, end in p["closed"].chunks),
        "chunks": {"p50_ms": chunk_p50s(p["open"]),
                   "throughput_qps": chunk_rates(p["closed"])},
        "samples": {"p50_ms": len(open_lat), "p99_ms": len(open_lat),
                    "p99_samples_beyond": beyond,
                    "throughput_qps": closed_ok},
        "generator": {
            "offered_qps": RATES[workload],
            "achieved_offered_qps": len(p["open"].records) / sum(
                end - start for start, end in p["open"].chunks),
            "late_p50_ms": median(late),
            "late_p99_ms": late_p99,
            "late_p99_samples_beyond": late_beyond,
            "late_max_ms": max(late) if late else 0.0,
        },
    }


def run_http(workload, seed, seconds, trace, tmp):
    oracle = Oracle()
    cluster = workload == "cluster_mix"
    # Cluster workers cannot be wrapped from outside: its ledger comes from
    # /metrics deltas and router probes taken after the untraced phases.
    base = http_pass(workload, seed, seconds, tmp, setups=SETUP_REPEATS,
                     traced=trace and cluster, oracle=oracle)
    summary = http_summary(workload, base)
    logs = [base["warm"], base["open"], base["closed"]]
    result = {
        "metrics": {
            "p50_ms": summary["p50_ms"],
            "throughput_qps": summary["throughput_qps"],
            "setup_s": median(base["setup_times_s"]),
            "rss_mb": base["rss_mb"],
        },
        "extra": {"p99_ms": summary["p99_ms"]},
        "samples": summary["samples"],
        "chunks": summary["chunks"],
        "generator": summary["generator"],
        "setup_times_s": base["setup_times_s"],
        "phases": {log.name: log.accounting() for log in logs},
        "engine_counters": base["engine_counters"],
    }
    if trace and cluster:
        result["per_layer"] = http_ledger(workload, base, summary)
    elif trace:
        traced = http_pass(workload, seed, seconds, tmp, setups=1,
                           traced=True, oracle=oracle)
        logs += [traced["warm"], traced["open"], traced["closed"]]
        result["per_layer"] = http_ledger(workload, traced, summary)
    result["accounting"] = accounting(
        sum(log.sent for log in logs), sum(log.failures() for log in logs),
        len(oracle.mismatches) + base.get("single_process_mismatches", 0),
        oracle.checked)
    return result


def http_ledger(workload, traced, untraced_summary):
    ledger = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    tsum = http_summary(workload, traced)
    ledger["loadgen.late_p99_ms"] = tsum["generator"]["late_p99_ms"] or 0.0
    timed = [traced["open"], traced["closed"]]
    ledger["loadgen.sent"] = sum(log.sent for log in timed)
    ledger["loadgen.completed"] = sum(len(log.succeeded()) for log in timed)
    phases = traced["engine_counters"]
    counters = {k: phases["open"][k] + phases["closed"].get(k, 0)
                for k in phases["open"]}
    ledger.update(engine_ledger(counters, *traced["batch"]))
    if "spans" in traced:
        rtts = [(r[3] - r[2]) * 1e3 for log in timed for r in log.succeeded()]
        ledger.update(span_ledger(traced["spans"]["spans"], traced["window"], rtts))
        ledger["arrays.kernel_invocations"] = kernel_delta(
            traced["spans"]["kernel_samples"], traced["window"])
        ledger["trace.overhead"] = tsum["p50_ms"] / untraced_summary["p50_ms"]
    else:
        # Cluster workers run unwrapped: only /metrics counters, the router
        # counters and the router hop (by subtraction) are measured.
        router = traced["router"]
        for name in ("routed", "spilled", "hedges", "hedge_wins",
                     "shard_errors"):
            ledger[f"router.{name}"] = router.get(name, 0)
        ledger["router.hop_ms"] = traced["router_hop_ms"]
        ledger["trace.overhead"] = 1.0
    return ledger


def accounting(attempted: int, failed: int, mismatches: int, checked: int):
    """Failure and correctness totals; ``error_rate`` carries its base."""
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "checked": checked,
        "error_rate": {"value": failed / attempted if attempted else 0.0,
                       "failed": failed, "attempted": attempted},
    }


# -- paper_regen ---------------------------------------------------------------------


def timed_child(argv, tmp):
    """Run ``argv`` to completion; return (wall_s, peak_rss_mb, rc, output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(tmp), cwd=str(tmp),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, output


def regen_pass(seconds, tmp, golden, traced):
    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < 3:
        out = Path(tempfile.mkdtemp(dir=tmp, prefix="regen-"))
        args = ["--jobs", "2", "--output", str(out)]
        if traced:
            spans_file = tmp / f"spans-{len(runs)}.json"
            argv = [sys.executable, str(LAUNCH), str(spans_file), "paper", *args]
        else:
            argv = [sys.executable, "-m", "repro.harness.runner", *args]
        wall, rss, rc, output = timed_child(argv, tmp)
        run = {"wall_s": wall, "rss_mb": rss, "rc": rc}
        manifest_path = out / "manifest.json"
        if rc == 0 and manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            run["mismatches"] = [
                name for name, entry in golden.items()
                if manifest["artifacts"].get(name, {}).get("text_sha256")
                != entry["text_sha256"]
            ]
            run["manifest"] = manifest
            files = [p for p in out.iterdir() if p.is_file()]
            run["store_files"] = len(files)
            run["store_bytes"] = sum(p.stat().st_size for p in files)
        else:
            run["error"] = output.decode("utf-8", "replace")[-2000:]
        if traced:
            run["spans"] = json.loads(spans_file.read_text())["spans"]
            spans_file.unlink()
        shutil.rmtree(out)
        runs.append(run)
    return runs


def run_paper(seed, seconds, trace, tmp):
    # The regeneration takes no input, so the seed changes nothing here.
    golden = json.loads((ROOT / "artifacts" / "manifest.json").read_text())
    golden = golden["artifacts"]
    setup_times = [
        timed_child([sys.executable, "-m", "repro.harness.runner",
                     "--version"], tmp)[0]
        for _ in range(SETUP_REPEATS)
    ]
    runs = regen_pass(seconds, tmp, golden, traced=False)
    good = [r for r in runs if "manifest" in r]
    walls = [r["wall_s"] for r in good]
    result = {
        "metrics": {
            "p50_ms": median(walls) * 1e3,
            "throughput_qps": len(ARTIFACTS) / median(walls),
            "setup_s": median(setup_times),
            "rss_mb": median([r["rss_mb"] for r in good]),
        },
        "extra": {"regen_s": median(walls)},
        "chunks": {"p50_ms": [w * 1e3 for w in walls]},
        "samples": {"p50_ms": len(walls), "regen_s": len(walls),
                    "throughput_qps": len(good) * len(ARTIFACTS)},
        "generator": {"closed_loop_callers": 1, "jobs": 2},
        "setup_times_s": setup_times,
        "regen_walls_s": walls,
    }
    all_runs = list(runs)
    if trace:
        traced_runs = regen_pass(seconds, tmp, golden, traced=True)
        all_runs += traced_runs
        result["per_layer"] = paper_ledger(traced_runs, median(walls))
    failed = sum(1 for r in all_runs if "manifest" not in r)
    mismatches = sum(len(r.get("mismatches", ())) for r in all_runs)
    result["phases"] = {"closed": {"sent": len(all_runs),
                                   "succeeded": len(all_runs) - failed,
                                   "failed": failed}}
    result["accounting"] = accounting(
        len(all_runs), failed, mismatches,
        sum(len(golden) for r in all_runs if "manifest" in r))
    if failed:
        result["errors"] = [r["error"] for r in all_runs if "error" in r][:2]
    return result


def paper_ledger(runs, untraced_regen_s):
    ledger = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    good = [r for r in runs if "manifest" in r]
    if not good:
        raise BenchError("no traced regeneration completed")

    def med(fn):
        return median([fn(r) for r in good])

    ledger["cache.hits"] = med(lambda r: r["manifest"]["cache"]["hits"])
    ledger["cache.misses"] = med(lambda r: r["manifest"]["cache"]["misses"])
    for name in SUBSTRATES:
        ledger[f"substrate.{name}_ms"] = med(
            lambda r: r["manifest"]["substrates"][name]["wall_time_s"] * 1e3)
    for name in ARTIFACTS:
        ledger[f"artifact.{name}_ms"] = med(
            lambda r: r["manifest"]["artifacts"][name]["wall_time_s"] * 1e3)
    ledger["store.files"] = med(lambda r: r["store_files"])
    ledger["store.bytes"] = med(lambda r: r["store_bytes"])
    per_run = [span_ledger(r["spans"], (0.0, float("inf")), []) for r in good]
    for name in ("store.write_ms", "arrays.evaluate_calls", "arrays.busy_ms",
                 "extrapolate.build_machine_calls", "extrapolate.busy_ms"):
        ledger[name] = median([p[name] for p in per_run])
    ledger["loadgen.sent"] = len(runs)
    ledger["loadgen.completed"] = len(good)
    ledger["trace.overhead"] = (
        median([r["wall_s"] for r in good]) / untraced_regen_s)
    return ledger


# -- entry point -----------------------------------------------------------------------

WORKLOADS = ("cold_scalar", "cluster_mix", "paper_regen")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH, prefix=f"{workload}-"))
    tempfile.tempdir = str(tmp)
    try:
        if workload == "paper_regen":
            return run_paper(seed, seconds, trace, tmp)
        return run_http(workload, seed, seconds, trace, tmp)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


def report(workload, seed, seconds, trace, result) -> dict:
    acct = result["accounting"]
    names = PER_LAYER if trace else END_TO_END
    source = result["per_layer"] if trace else result["metrics"]
    metrics = {
        name: {"value": float(source[name]), "unit": unit}
        for name, unit in names
    }
    correct = acct["mismatches"] == 0 and acct["checked"] > 0
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_facts(),
        "connections": CONNECTIONS,
        "offered_qps": RATES.get(workload),
        "correct": correct,
        **{k: v for k, v in result.items() if k != "per_layer"},
        "per_layer": result.get("per_layer"),
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(provenance, indent=1, default=str) + "\n")

    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"connections={CONNECTIONS} offered_qps={RATES.get(workload)}")
    shown = dict(result["metrics"])
    shown.update({k: v for k, v in result["extra"].items()})
    shown["error_rate"] = acct["error_rate"]["value"]
    units = {"p99_ms": "ms", "regen_s": "s", "error_rate": "ratio", **UNITS}
    for name, value in shown.items():
        note = ""
        if name in result.get("samples", {}):
            note = f"  (n={result['samples'][name]})"
        if name == "p99_ms":
            beyond = result["samples"]["p99_samples_beyond"]
            note = f"  (n={result['samples']['p99_ms']}, {beyond} beyond)"
            if value is None:
                value, note = "unresolved", note + " fewer than 10 beyond"
        if name == "error_rate":
            note = f"  ({acct['failed']}/{acct['attempted']})"
        shown_value = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:>16} {shown_value} {units[name]}{note}")
    if trace:
        for name, _unit in PER_LAYER:
            print(f"{name:>34} {source[name]:.6g} {UNITS[name]}")
    print(f"# correctness: {acct['checked']} answers checked, "
          f"{acct['mismatches']} mismatches; result file {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": int(acct["attempted"]),
            "failed": int(acct["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    line = report(args.workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
