"""The ``repro-serve`` HTTP front end (stdlib-only).

The server runs on the engine's own event loop — the loop a started
:class:`~repro.serve.client.ServeClient` owns — and speaks HTTP/1.1
through :mod:`repro.serve.wire`, the same keep-alive stack the cluster
router uses.  ``POST /query`` awaits
:meth:`~repro.serve.engine.QueryEngine.submit` directly, so concurrent
HTTP requests coalesce, batch, and shed exactly like in-process ones,
with no thread hop in between.

Endpoints (JSON in, JSON out):

* ``POST /query``  — ``{"kind": ..., "params": {...}}`` → the answer
  plus serving metadata (``cached``/``coalesced``/``batched``/latency);
  an optional ``"scenario"`` field (an inline ScenarioSpec object or
  the name of a ``--scenario``-registered one) overlays the evaluation;
* ``GET /kinds``   — every query kind and its parameter schema;
* ``GET /scenarios`` — the registered named scenarios;
* ``GET /metrics`` — the engine's metrics snapshot (JSON);
  ``GET /metrics?format=text`` — the same snapshot as plain-text
  ``name{labels} value`` exposition lines for scrapers;
* ``GET /healthz`` — liveness (the engine loop is up);
* ``GET /readyz``  — readiness: breaker states, warm substrates, the
  active fault plan, and the draining flag; HTTP 503 while any breaker
  is non-closed or the process is draining.

Every error response carries the exception's machine-readable ``code``
(see :mod:`repro.errors`), and codes map to HTTP statuses from the one
:data:`~repro.serve.wire.STATUS_BY_CODE` table — invalid queries → 400,
load shedding → 429, an open circuit breaker or a draining service →
503, deadline expiry → 504; anything else in the taxonomy → 500 with
its code, so a bare unclassified 500 means exactly "an exception that
escaped the taxonomy".  Retryable rejections additionally carry a
jittered ``Retry-After`` header.

Lifecycle: SIGTERM/SIGINT start a graceful drain — readiness flips to
503 so load balancers stop routing here, new ``/query`` work is
refused with 503 + ``Retry-After``, in-flight queries (and the
responses carrying them) finish under ``--drain-timeout``, the result
cache is flushed to the ``--cache-snapshot`` file (checksummed; a
corrupt snapshot at next startup means a cold start, never a crash),
and the process exits 0.

All three serve command lines (this one, the cluster front end, a
cluster worker) build on one argparse definition, :func:`serve_parser`.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from typing import Any

from repro.errors import QueryValidationError, ReproError, ServiceDraining

from repro.serve.client import ServeClient
from repro.serve.deadline import (
    DEADLINE_HEADER,
    DeadlineBudget,
    parse_deadline_header,
    parse_deadline_ms,
)
from repro.serve.metrics import render_text_metrics
from repro.serve.wire import (
    STATUS_BY_CODE,
    HttpServer,
    Request,
    Response,
    error_response,
    json_response,
)

__all__ = [
    "ServeHTTPServer",
    "NO_STORE_HEADER",
    "RESULT_DIGEST_HEADER",
    "STATUS_BY_CODE",
    "await_shutdown",
    "make_server",
    "main",
    "parse_serve_args",
    "run_serve_loop",
    "serve_parser",
    "shutdown_on_signal",
    "single_process_parser",
]

#: Request header asking the engine not to cache the answer.  Sent by
#: the cluster router's hedged-request backup: a duplicate answer
#: inserted into the *backup* shard's LRU would evict entries that
#: shard is actually warm for (cache pollution).
NO_STORE_HEADER = "X-Repro-No-Store"

#: Response header carrying the answer's sealed canonical SHA-256 (see
#: :mod:`repro.integrity`): any downstream hop — the cluster router, an
#: HTTP client, a proxy with opinions — can re-hash the ``value`` field
#: and prove the bytes it received are the bytes the engine computed.
RESULT_DIGEST_HEADER = "X-Repro-Result-Digest"

#: How long a drained server keeps its listener open, answering new
#: ``/query`` work with the typed 503, before it closes.  A request sent
#: as the shutdown signal landed can be admitted ahead of the drain; its
#: client's next request then gets a retry hint, not a refused
#: connection.
LATE_ARRIVAL_GRACE_S = 0.25


class ServeHTTPServer:
    """HTTP server bound to one started :class:`ServeClient`, serving on
    the client's event loop.

    The socket listens from construction (connections queue in the
    backlog); :meth:`start` begins answering them.
    """

    def __init__(
        self,
        address: tuple[str, int],
        client: ServeClient,
        *,
        verbose: bool = False,
    ) -> None:
        self.client = client
        self._sock = socket.create_server(address)
        self.url = "http://%s:%d" % self._sock.getsockname()[:2]
        self._http = HttpServer(self._route, role="server",
                                access_log=verbose)
        self._started = False
        self._stopped = threading.Event()

    def start(self) -> None:
        """Begin answering requests on the client's loop."""
        if not self._started:
            self._started = True
            self.client.run(self._http.start(sock=self._sock))

    def serve_forever(self) -> None:
        """:meth:`start`, then block until :meth:`shutdown`."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop answering: close the listener and every connection."""
        if self._started:
            self.client.run(self._http.close())
        self._stopped.set()

    def server_close(self) -> None:
        self._sock.close()

    def begin_drain(self) -> None:
        """Flip to draining: ``/readyz`` answers 503, new ``/query``
        requests are turned away, the engine stops admitting work."""
        self.client.begin_drain()

    def await_quiescence(self, timeout_s: float) -> bool:
        """Wait for the in-flight requests to be answered (``True``) or
        the deadline (``False``)."""
        return self._http.await_quiescence(timeout_s)

    async def _route(self, request: Request) -> Response:
        client = self.client
        if request.method == "POST" and request.path == "/query":
            return await self._query(request)
        if request.method == "GET":
            if request.path == "/healthz":
                return json_response(200, client.health())
            if request.path == "/readyz":
                readiness = client.readiness()
                return json_response(200 if readiness["ready"] else 503,
                                     readiness)
            if request.path == "/metrics":
                if request.query.get("format", ["json"])[-1] == "text":
                    return Response(
                        200,
                        render_text_metrics(client.metrics()).encode("utf-8"),
                        "text/plain; charset=utf-8",
                    )
                return json_response(200, client.metrics())
            if request.path == "/kinds":
                return json_response(200, client.kinds())
            if request.path == "/scenarios":
                return json_response(200, client.scenarios())
        return json_response(
            404, {"error": f"no such endpoint: {request.target}"}
        )

    async def _query(self, request: Request) -> Response:
        engine = self.client.engine
        if engine.draining:
            # Rejected at the door: the drain counts this request, but
            # the engine never sees the query.
            return error_response(ServiceDraining(
                "service is draining for shutdown; retry against "
                "another replica"
            ))
        try:
            query = json.loads(request.body or b"{}")
            kind = query["kind"]
            params = query.get("params") or {}
            scenario = query.get("scenario")
            deadline_ms = query.get("deadline_ms")
        except (ValueError, KeyError, TypeError) as exc:
            return json_response(
                400, {"error": f"malformed query request: {exc}"}
            )
        try:
            # The wire header (an upstream hop's remaining budget) wins
            # over the body field (a direct client's ask).
            budget = parse_deadline_header(
                request.headers.get(DEADLINE_HEADER.lower())
            )
            if budget is None and deadline_ms is not None:
                budget = DeadlineBudget(parse_deadline_ms(deadline_ms))
        except QueryValidationError as exc:
            engine.metrics.inc("invalid")
            return error_response(exc)
        store = request.headers.get(NO_STORE_HEADER.lower(), "") in ("", "0")
        response = await engine.submit(
            kind, params, scenario=scenario, budget=budget, store=store,
        )
        payload = response.to_dict()
        payload["ok"] = True
        return json_response(
            200,
            payload,
            {RESULT_DIGEST_HEADER: response.digest} if response.digest
            else None,
        )


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    client: ServeClient | None = None,
    verbose: bool = False,
    **engine_kwargs: Any,
) -> ServeHTTPServer:
    """Build a server (and, unless given one, a started client).

    ``port=0`` binds an ephemeral port — read ``server.url`` for the
    actual address.  The caller owns shutdown: ``server.shutdown()``,
    ``server.server_close()``, then ``server.client.close()``.
    """
    if client is None:
        client = ServeClient(**engine_kwargs).start()
    return ServeHTTPServer((host, port), client, verbose=verbose)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ``SystemExit(message)``: the message
    names the flag and the failure, and the exit status is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise SystemExit(f"{self.prog}: error: {message}")


def serve_parser(
    prog: str,
    description: str,
    *,
    port: int,
    snapshot_interval: float,
) -> argparse.ArgumentParser:
    """The options every serve process shares: single-process
    ``repro-serve``, the ``--cluster`` front end, and a shard worker.
    Each caller adds its own options to the returned parser."""
    parser = _ArgumentParser(
        prog=prog, description=description, allow_abbrev=False,
    )
    add = parser.add_argument
    add("--host", default="127.0.0.1",
        help="bind address (default %(default)s)")
    add("--port", type=int, default=port,
        help="bind port; 0 picks one (default %(default)s)")
    add("--handler-concurrency", type=int, default=4, metavar="N",
        help="concurrent handler evaluations (default %(default)s)")
    add("--queue-size", type=int, default=128, metavar="N",
        help="admission-queue bound (default %(default)s)")
    add("--cache-size", type=int, default=256, metavar="N",
        help="result-cache entries (default %(default)s)")
    add("--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-query deadline (default %(default)g)")
    add("--scenario", action="append", default=[], metavar="FILE",
        help="register a named what-if overlay (repeatable)")
    add("--fault-plan", metavar="FILE",
        help="inject a chaos experiment (JSON FaultPlan)")
    add("--snapshot-interval", type=float, default=snapshot_interval,
        metavar="SECONDS",
        help="also flush the cache snapshot periodically "
             "(0 disables; default %(default)g)")
    add("--verify-sample-rate", type=float, default=0.125, metavar="R",
        help="fraction of cache hits whose sealed digest is re-verified "
             "before serving (default %(default)g; 1 = every hit)")
    add("--scrub-interval", type=float, default=0.0, metavar="SECONDS",
        help="background cache-scrubber pass interval; corrupt entries "
             "are quarantined and recomputed (0 disables; "
             "default %(default)g)")
    add("--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="in-flight grace on SIGTERM/SIGINT (default %(default)g)")
    add("--verbose", action="store_true",
        help="log every request (a cluster forwards its workers' logs, "
             "prefixed by shard)")
    return parser


def parse_serve_args(
    parser: argparse.ArgumentParser, argv: list[str] | None
) -> argparse.Namespace | None:
    """Parse ``argv`` (default ``sys.argv[1:]``); ``None`` when
    ``--help`` already printed its answer."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            return None
        raise


def engine_options(args: argparse.Namespace) -> dict[str, Any]:
    """The parsed options that configure a process's engine."""
    return {
        "workers": args.handler_concurrency,
        "max_queue": args.queue_size,
        "cache_size": args.cache_size,
        "default_timeout_s": args.timeout,
        "fault_plan": load_fault_plan_arg(args.fault_plan),
        "verify_sample_rate": args.verify_sample_rate,
        "scrub_interval_s": args.scrub_interval,
    }


def load_fault_plan_arg(path: str | None):
    """``--fault-plan`` parsing shared by serve and cluster workers."""
    if path is None:
        return None
    from repro.errors import FaultPlanError
    from repro.resilience import load_fault_plan

    try:
        return load_fault_plan(path)
    except FaultPlanError as exc:
        raise SystemExit(f"--fault-plan: {exc}")


def register_scenario_files(server: ServeHTTPServer,
                            scenario_files: list[str]) -> None:
    """Register each ``--scenario`` file on the server's engine,
    tearing the server down on a bad spec."""
    if not scenario_files:
        return
    from repro.errors import ScenarioError
    from repro.scenario import load_scenario

    for path in scenario_files:
        try:
            spec = server.client.engine.register_scenario(load_scenario(path))
        except ScenarioError as exc:
            server.shutdown()
            server.server_close()
            server.client.close()
            raise SystemExit(f"--scenario {path}: {exc}")
        print(
            f"registered scenario {spec.name!r} ({spec.fingerprint[:12]})",
            flush=True,
        )


def restore_snapshot(server: ServeHTTPServer, snapshot_file: str) -> None:
    """Warm the cache from ``snapshot_file`` if it exists.  A
    structurally broken snapshot is reported and ignored (cold start,
    never a crash); entries failing their per-entry digest are
    quarantined and only the verified rest restored."""
    import os

    from repro.errors import SnapshotError

    if os.path.exists(snapshot_file):
        try:
            restored = server.client.load_cache_snapshot(snapshot_file)
        except SnapshotError as exc:
            # Cold start, by contract: warmth is optional, crashing
            # on a damaged snapshot is not.
            print(f"cache snapshot rejected, starting cold: {exc}",
                  flush=True)
        else:
            quarantined = server.client.engine.metrics.counters[
                "snapshot_entries_quarantined"
            ].value
            print(
                f"cache warmed from {snapshot_file} ({restored} entries, "
                f"{quarantined} quarantined)",
                flush=True,
            )
    else:
        print(f"no cache snapshot at {snapshot_file}, starting cold",
              flush=True)


def shutdown_on_signal(action: str, drain_timeout: float) -> threading.Event:
    """Install SIGTERM/SIGINT handlers; the returned event is set by the
    first signal, announced as ``received <SIG>; <action> (grace ...)``.
    Call from the main thread."""
    import signal

    requested = threading.Event()

    def _request_shutdown(signum: int, _frame: Any) -> None:
        if not requested.is_set():
            print(
                f"received {signal.Signals(signum).name}; "
                f"{action} (grace {drain_timeout:g}s)",
                flush=True,
            )
            requested.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)
    return requested


def await_shutdown(requested: threading.Event) -> None:
    """Block the main thread until ``requested`` is set.  Polls: Python
    runs signal handlers only in the main thread, and a signal delivered
    to another thread never wakes an untimed wait there."""
    while not requested.wait(0.1):
        pass


def run_serve_loop(
    server: ServeHTTPServer,
    *,
    snapshot_file: str | None,
    drain_timeout: float,
    snapshot_interval: float = 0.0,
    name: str = "repro-serve",
    banner: str | None = None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully and exit 0.

    The run loop shared by the single-process front end and every
    cluster worker: install the signal handlers, announce the bound
    address (``banner`` overrides the default ``"<name> listening on
    <url>"`` line — the cluster supervisor parses it), optionally flush
    the cache snapshot every ``snapshot_interval`` seconds so a
    SIGKILL'd worker still reboots warm from its last flush, and on the
    first signal run the drain sequence: refuse new work, wait for
    in-flight queries and the responses carrying them, flush the final
    snapshot, exit cleanly.
    """
    shutdown_requested = shutdown_on_signal("draining", drain_timeout)
    server.start()
    print(banner or f"{name} listening on {server.url}", flush=True)

    if snapshot_file is not None and snapshot_interval > 0:
        # Periodic warm-boot insurance: a SIGKILL'd process never runs
        # its drain sequence, so the snapshot it reboots from is the
        # last periodic flush, not the graceful one.
        def _flush_periodically() -> None:
            while not shutdown_requested.wait(snapshot_interval):
                try:
                    server.client.save_cache_snapshot(snapshot_file)
                except ReproError as exc:
                    print(f"periodic cache snapshot failed: {exc}",
                          flush=True)

        threading.Thread(
            target=_flush_periodically,
            name=f"{name}-snapshot",
            daemon=True,
        ).start()

    await_shutdown(shutdown_requested)

    # The drain sequence: refuse new work first, then wait for what is
    # already running — engine in-flight queries AND the HTTP requests
    # whose responses are still being written — then flush the cache
    # and exit cleanly.
    t0 = time.monotonic()
    server.begin_drain()
    engine_idle = server.client.drain(drain_timeout)
    remaining = max(0.0, drain_timeout - (time.monotonic() - t0))
    http_idle = server.await_quiescence(remaining)
    if engine_idle and http_idle:
        print(
            f"drained in {time.monotonic() - t0:.2f}s "
            "(zero in-flight queries dropped)",
            flush=True,
        )
    else:
        print(
            f"drain deadline ({drain_timeout:g}s) struck with work "
            "in flight; shutting down anyway",
            flush=True,
        )
    if snapshot_file is not None:
        try:
            flushed = server.client.save_cache_snapshot(snapshot_file)
        except ReproError as exc:  # StoreError/SnapshotError: warmth lost
            print(f"cache snapshot flush failed: {exc}", flush=True)
        else:
            print(
                f"cache snapshot flushed to {snapshot_file} "
                f"({flushed} entries)",
                flush=True,
            )
    time.sleep(LATE_ARRIVAL_GRACE_S)
    server.shutdown()
    server.server_close()
    server.client.close()
    print(f"{name} exited cleanly", flush=True)
    return 0


def single_process_parser() -> argparse.ArgumentParser:
    """The shared serve options plus ``--cache-snapshot`` and
    ``--version``."""
    parser = serve_parser(
        "repro-serve",
        "Serve what-if queries over HTTP from one process; with "
        "--cluster N, from N consistent-hash routed worker processes "
        "instead (see repro-serve --cluster 2 --help).",
        port=8077,
        snapshot_interval=0.0,
    )
    parser.add_argument(
        "--cache-snapshot", metavar="FILE",
        help="warm the cache from FILE at startup (damaged entries "
             "quarantined, the rest restored) and flush it back on "
             "graceful shutdown",
    )
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point for ``repro-serve``.

    ``--cluster N`` hands the whole invocation to the sharded
    multi-worker front end (:mod:`repro.cluster.cli`).  Otherwise one
    process serves directly, and SIGTERM/SIGINT trigger a graceful
    drain instead of an abrupt exit: ``/readyz`` flips to 503 and new
    ``/query`` work is refused with 503 + ``Retry-After`` immediately,
    in-flight queries run to completion under ``--drain-timeout``, the
    result cache is flushed to ``--cache-snapshot`` (checksummed,
    durably written), and the process exits 0.  A second signal during
    the drain is ignored — the drain deadline bounds shutdown either
    way.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if any(a == "--cluster" or a.startswith("--cluster=") for a in argv):
        from repro.cluster.cli import main as cluster_main

        return cluster_main(argv)
    args = parse_serve_args(single_process_parser(), argv)
    if args is None:
        return 0
    if args.version:
        from repro import package_version

        print(f"repro-serve {package_version()}")
        return 0
    options = engine_options(args)
    server = make_server(args.host, args.port, verbose=args.verbose,
                         **options)
    fault_plan = options["fault_plan"]
    if fault_plan is not None:
        print(
            f"fault plan {fault_plan.label()!r} armed "
            f"({fault_plan.fingerprint[:12]}, {len(fault_plan.rules)} rule(s))",
            flush=True,
        )
    register_scenario_files(server, args.scenario)
    if args.cache_snapshot is not None:
        restore_snapshot(server, args.cache_snapshot)
    return run_serve_loop(
        server,
        snapshot_file=args.cache_snapshot,
        drain_timeout=args.drain_timeout,
        snapshot_interval=args.snapshot_interval,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
