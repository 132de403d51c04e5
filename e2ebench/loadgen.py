"""Load generation: keep-alive HTTP connections, Poisson open loop, closed loop.

One process, at most ``nproc`` sender threads, one persistent HTTP/1.1
connection per thread with ``TCP_NODELAY``.  Sender threads sleep with
``time.sleep`` (nanosecond clock, no event-loop millisecond rounding), so
the generator itself adds little to the latencies it records.

Open loop: arrivals are a Poisson process at a fixed offered rate, drawn
from the workload seed before the phase starts.  Each request is timed
from the instant it was *due*, so a stall (server or generator) is
charged to every request it delays; the generator's own lateness (sent
minus due) is recorded beside it.

Closed loop: every sender issues its next request as soon as the last one
answered, for a fixed duration; throughput is answers per second.
"""

from __future__ import annotations

import http.client
import math
import random
import threading
import time
from dataclasses import dataclass, field

#: Percentiles are reported only with at least this many samples beyond them.
MIN_TAIL_SAMPLES = 10

#: HTTP statuses that carry a typed rejection (shed, unavailable, deadline).
TYPED_STATUSES = (429, 503, 504)


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond the reported rank: a p99 needs 1,000
    samples, a median 20.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = samples_beyond(n, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(needs {MIN_TAIL_SAMPLES})"
        )
    return ordered[n - beyond - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n)) if n else 0


def poisson_schedule(rate: float, duration_s: float, rng: random.Random):
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    arrivals = []
    t = rng.expovariate(rate)
    while t < duration_s:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


def connect(host: str, port: int, timeout_s: float = 60.0):
    """A persistent HTTP/1.1 keep-alive connection.  ``http.client`` sets
    ``TCP_NODELAY`` on connect and reconnects on the next request after
    the connection was closed."""
    return http.client.HTTPConnection(host, port, timeout=timeout_s)


def request(conn, method: str, path: str, body: bytes = b""):
    """Send one request over ``conn``; return ``(status, body_bytes)``.
    A transport error closes the connection before it propagates."""
    try:
        conn.request(method, path, body,
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    except BaseException:
        conn.close()
        raise


@dataclass
class PhaseLog:
    """What one phase sent and how each request ended."""

    name: str
    #: per request: (index, due, sent, done, status, body); status 0 = exception
    records: list = field(default_factory=list)
    #: (start, end) of each stretch of the phase
    chunks: list = field(default_factory=list)
    refused: int = 0
    unclassified: int = 0
    exceptions: list = field(default_factory=list)

    @property
    def started(self) -> float:
        return self.chunks[0][0]

    @property
    def ended(self) -> float:
        return self.chunks[-1][1]

    @property
    def sent(self) -> int:
        return len(self.records) + self.refused

    def succeeded(self) -> list:
        return [r for r in self.records if r[4] == 200]

    def typed(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            if r[4] in TYPED_STATUSES:
                counts[str(r[4])] = counts.get(str(r[4]), 0) + 1
        return counts

    def other_status(self) -> int:
        """Non-200 replies outside the typed rejections (400, 500, ...)."""
        return sum(
            1 for r in self.records if r[4] not in (0, 200, *TYPED_STATUSES)
        )

    def accounting(self) -> dict:
        typed = self.typed()
        return {
            "sent": self.sent,
            "succeeded": len(self.succeeded()),
            "typed_failures": typed,
            "other_status": self.other_status(),
            "unclassified": self.unclassified,
            "refused": self.refused,
            "exceptions": self.exceptions[:5],
        }

    def failures(self) -> int:
        return (
            sum(self.typed().values())
            + self.other_status()
            + self.unclassified
            + self.refused
        )


def _send(conn, body: bytes, log: PhaseLog, lock, index, due):
    sent = time.perf_counter()
    try:
        status, payload = request(conn, "POST", "/query", body)
    except ConnectionRefusedError:
        with lock:
            log.refused += 1
        return
    except (OSError, http.client.HTTPException) as exc:
        with lock:
            log.unclassified += 1
            log.exceptions.append(repr(exc))
            log.records.append((index, due, sent, time.perf_counter(), 0, b""))
        return
    done = time.perf_counter()
    with lock:
        log.records.append((index, due, sent, done, status, payload))


def open_loop(connections, bodies, arrivals, log, indices, offset=0.0):
    """Fire ``bodies[i]`` for ``i`` in ``indices`` at ``arrivals[i] - offset``
    seconds after the call, recording into ``log`` as one chunk.

    Each sender takes the next due request as soon as it is free, so a
    request waits for a free connection exactly as it would for a busy
    server slot, and that wait counts in its latency.
    """
    lock = threading.Lock()
    cursor = iter(indices)
    start = time.perf_counter() + 0.01

    def sender(conn):
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + arrivals[index] - offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(conn, bodies[index], log, lock, index, due)

    _run_threads(sender, connections)
    log.chunks.append((start, time.perf_counter()))


def closed_loop(connections, bodies, duration_s, log, cursor, wrap=True):
    """Each sender issues requests back to back for ``duration_s``,
    recording into ``log`` as one chunk.

    ``bodies`` is consumed in the order of the shared ``cursor`` (an
    ``itertools.count``); with ``wrap`` it is reused from the start when
    exhausted, otherwise (a workload whose requests must all be distinct)
    the chunk ends early, and its recorded end is when it did.
    """
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + duration_s

    def sender(conn):
        while time.perf_counter() < stop_at:
            with lock:
                index = next(cursor)
            if index >= len(bodies):
                if not wrap:
                    return
                index %= len(bodies)
            _send(conn, bodies[index], log, lock, index, time.perf_counter())

    _run_threads(sender, connections)
    log.chunks.append((start, time.perf_counter()))


def _run_threads(target, connections) -> None:
    errors = []

    def guarded(conn):
        try:
            target(conn)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(c,), daemon=True)
        for c in connections
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
