"""The one HTTP/1.1 stack (:mod:`repro.serve.wire`) in both server roles,
and the one option parser behind the three serve command lines.

Wire layer: a serve worker and the cluster router answer malformed
requests with a JSON 400 and close the connection; every accepted and
pooled socket runs with ``TCP_NODELAY`` (without it a small header write
plus a small body write stall ~40 ms on the peer's delayed ACK); and a
worker's ``POST /query`` reaches the engine on its own loop, never
through the blocking :meth:`ServeClient.query` thread hop.

CLI layer: ``repro-serve``, ``repro-serve --cluster N`` and
``python -m repro.cluster.worker`` share one argparse definition; each
role's ``--help`` lists its options and bad values name their flag.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.cluster.protocol import ShardTable
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.serve import ServeClient
from repro.serve.http import main as serve_main, make_server

QUERY = json.dumps(
    {"kind": "me_speedup", "params": {"device": "v100", "fmt": "fp16"}}
).encode()


@pytest.fixture(scope="module")
def worker():
    srv = make_server(port=0, workers=1, cache_size=16)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.client.close()
    thread.join()


@pytest.fixture(scope="module")
def router(worker):
    """A one-shard router whose shard is the in-process ``worker``."""
    table = ShardTable([0])
    table.mark_up(0, worker.url, pid=None)
    rtr = ClusterRouter(table, HashRing([0], vnodes=16, seed=0), spill=0)
    rtr.start("127.0.0.1", 0)
    yield rtr
    rtr.stop()


def _on_loop(server, coro):
    """Run ``coro`` on the event loop that serves ``server``."""
    if isinstance(server, ClusterRouter):
        return asyncio.run_coroutine_threadsafe(coro, server._loop).result(30)
    return server.client.run(coro)


def _address(server):
    host, port = server.url.rsplit("/", 1)[-1].split(":")
    return host, int(port)


def _raw_exchange(server, payload: bytes) -> bytes:
    """Send ``payload``, then read until the server closes."""
    with socket.create_connection(_address(server), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


MALFORMED = {
    "content_length_not_a_number": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
        + QUERY
    ),
    "content_length_negative": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
        + QUERY
    ),
    "request_line": b"GARBAGE\r\n\r\n",
    "too_many_headers": (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
        + b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(250))
        + b"\r\n"
    ),
}


@pytest.mark.parametrize("role", ["worker", "router"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_gets_a_json_400_and_close(role, case, request):
    server = request.getfixturevalue(role)
    reply = _raw_exchange(server, MALFORMED[case])
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
    assert b"Connection: close" in head
    # Exactly one reply: nothing of the request was parsed as a second one.
    assert reply.count(b"HTTP/1.1 ") == 1
    assert "malformed HTTP request" in json.loads(body)["error"]


def test_worker_serves_keep_alive_queries_without_the_client_hop(
    worker, monkeypatch
):
    def no_hop(*args, **kwargs):
        raise AssertionError("HTTP /query went through ServeClient.query")

    monkeypatch.setattr(ServeClient, "query", no_hop)
    conn = http.client.HTTPConnection(*_address(worker), timeout=30)
    try:
        conn.connect()
        sock = conn.sock
        for _ in range(50):
            conn.request("POST", "/query", QUERY,
                         {"Content-Type": "application/json"})
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            assert reply.status == 200, payload
            assert payload["ok"] is True
            assert conn.sock is sock  # one keep-alive connection
    finally:
        conn.close()


def test_expect_100_continue_is_answered_before_the_body(worker):
    with socket.create_connection(_address(worker), timeout=10) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(QUERY)
        )
        interim = sock.recv(65536)
        assert interim.startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
        sock.sendall(QUERY)
        reply = interim[len(b"HTTP/1.1 100 Continue\r\n\r\n"):]
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(65536)
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")


def test_unexpected_handler_failure_is_a_typed_500(worker, monkeypatch):
    async def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(worker.client.engine, "submit", broken)
    conn = http.client.HTTPConnection(*_address(worker), timeout=30)
    try:
        conn.request("POST", "/query", QUERY)
        reply = conn.getresponse()
        payload = json.loads(reply.read())
    finally:
        conn.close()
    assert reply.status == 500
    assert payload["code"] == "repro_error"
    assert payload["error"] == "server failure: boom"


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


@pytest.mark.parametrize("role", ["worker", "router"])
def test_accepted_sockets_disable_nagle(role, request):
    server = request.getfixturevalue(role)
    http_server = server._http
    conn = http.client.HTTPConnection(*_address(server), timeout=30)
    try:
        conn.request("GET", "/healthz")
        conn.getresponse().read()

        async def flags():
            return [_nodelay(w.get_extra_info("socket"))
                    for w in http_server.connections]

        accepted = _on_loop(server, flags())
    finally:
        conn.close()
    assert accepted and all(accepted)


def test_router_pool_sockets_disable_nagle(router, worker):
    conn = http.client.HTTPConnection(*_address(router), timeout=30)
    try:
        conn.request("POST", "/query", QUERY)
        reply = conn.getresponse()
        assert reply.status == 200, reply.read()
        reply.read()
    finally:
        conn.close()
    pool = router._pools[worker.url]

    async def flags():
        return [_nodelay(w.get_extra_info("socket")) for _, w in pool.idle]

    pooled = _on_loop(router, flags())
    assert pooled and all(pooled)


# -- the shared option parser ------------------------------------------------


#: Options each role's ``--help`` listed before the shared parser.
CLUSTER_OPTIONS = (
    "--cluster", "--host", "--port", "--handler-concurrency",
    "--queue-size", "--cache-size", "--timeout", "--scenario",
    "--fault-plan", "--fault-plan-shard", "--snapshot-dir",
    "--snapshot-interval", "--drain-timeout", "--spill", "--ring-seed",
    "--no-hedge", "--hedge-ratio", "--verify-sample-rate",
    "--scrub-interval", "--verbose",
)
WORKER_OPTIONS = (
    "--shard-id", "--host", "--port", "--handler-concurrency",
    "--queue-size", "--cache-size", "--scenario", "--fault-plan",
    "--timeout", "--cache-snapshot", "--snapshot-interval",
    "--verify-sample-rate", "--scrub-interval", "--drain-timeout",
    "--verbose",
)


class TestServeParsers:
    def test_cluster_help_lists_every_option(self, capsys):
        assert serve_main(["--cluster", "2", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in CLUSTER_OPTIONS:
            assert flag in out, flag
        assert "--workers" not in out

    def test_worker_help_lists_every_option(self, capsys):
        from repro.cluster.worker import main as worker_main

        assert worker_main(["--help"]) == 0
        out = capsys.readouterr().out
        for flag in WORKER_OPTIONS:
            assert flag in out, flag
        assert "--workers" not in out

    def test_single_process_help_points_at_cluster_mode(self, capsys):
        assert serve_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--cluster" in out and "--cache-snapshot" in out
        assert "--workers" not in out

    def test_cluster_only_flag_needs_cluster(self):
        with pytest.raises(SystemExit,
                           match="unrecognized arguments: --spill 1"):
            serve_main(["--spill", "1"])

    @pytest.mark.parametrize("argv, message", [
        (["--spill", "-1"], "--spill expects an integer >= 0, got -1"),
        (["--spill", "two"], "argument --spill: invalid int value: 'two'"),
        (["--hedge-ratio", "2"],
         r"--hedge-ratio expects a ratio in \(0, 1\], got 2.0"),
        (["--hedge-ratio", "most"],
         "argument --hedge-ratio: invalid float value: 'most'"),
        (["--fault-plan-shard", "5"],
         "--fault-plan-shard expects a shard id in"),
    ])
    def test_cluster_rejects_bad_values_naming_the_flag(self, argv, message):
        from repro.cluster.cli import main as cluster_main

        with pytest.raises(SystemExit, match=message):
            cluster_main(["--cluster", "2", *argv])

    def test_cluster_rejects_a_bad_size(self):
        from repro.cluster.cli import main as cluster_main

        with pytest.raises(SystemExit,
                           match="--cluster expects a size >= 1, got 0"):
            cluster_main(["--cluster", "0"])

    def test_worker_requires_shard_id(self):
        from repro.cluster.worker import main as worker_main

        with pytest.raises(SystemExit, match=r"--shard-id N \(>= 0\) is "
                           "required for a cluster worker"):
            worker_main(["--port", "0"])

    @pytest.mark.parametrize("argv", [
        ["--workers", "3"],
        ["--cluster", "2", "--workers", "3"],
    ])
    def test_workers_alias_is_gone(self, argv):
        with pytest.raises(SystemExit,
                           match="unrecognized arguments: --workers 3"):
            serve_main(argv)

    def test_supervisor_worker_command_parses(self, tmp_path):
        from repro.cluster.supervisor import ClusterSupervisor
        from repro.cluster.worker import worker_parser

        supervisor = ClusterSupervisor(
            2, handler_concurrency=3, snapshot_dir=str(tmp_path),
            snapshot_interval_s=0.5, fault_plan_file="plan.json",
            verbose=True,
        )
        cmd = supervisor._worker_cmd(1)
        assert cmd[1:3] == ["-m", "repro.cluster.worker"]
        args = worker_parser().parse_args(cmd[3:])
        assert args.shard_id == 1
        assert args.handler_concurrency == 3
        assert args.snapshot_interval == 0.5
        assert args.fault_plan == "plan.json"
        assert args.cache_snapshot == str(tmp_path / "shard-1.json")
        assert args.verbose is True
