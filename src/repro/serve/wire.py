"""HTTP/1.1 on asyncio streams: the one wire stack of ``repro-serve``.

A serve worker (:mod:`repro.serve.http`) and the cluster router
(:mod:`repro.cluster.router`) both serve through :class:`HttpServer` —
the keep-alive connection loop, which counts requests in flight (read
→ handled → written) for a graceful drain, answers a malformed request
with a JSON 400 and closes, and maps handler exceptions to typed
replies through the one :data:`STATUS_BY_CODE` table.  The router
reaches its shards through :class:`ConnectionPool`, the pooled
keep-alive client.  Every socket on either side runs with
``TCP_NODELAY``: a small header write followed by a small body write
otherwise meets the peer's delayed ACK, a ~40 ms stall per round trip.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import sys
import time
import urllib.parse
from http import HTTPStatus
from typing import Any, Awaitable, Callable, NamedTuple

from repro.errors import ReproError

__all__ = [
    "STATUS_BY_CODE", "MAX_HEADERS", "MalformedMessage", "Request",
    "Response", "HttpServer", "ConnectionPool", "error_response",
    "json_response", "read_request", "read_response",
]

#: The one code→HTTP-status table.  Codes absent here answer 500; the
#: ``code`` field still rides in the payload, so even a 500 is typed.
STATUS_BY_CODE: dict[str, int] = {
    "query_validation": 400,
    "scenario_error": 400,
    "fault_plan_error": 400,
    "service_overloaded": 429,
    "circuit_open": 503,
    "service_draining": 503,
    "shard_unavailable": 503,
    "operation_cancelled": 503,
    "query_timeout": 504,
    "deadline_exhausted": 504,
    "integrity_error": 500,
}

#: A request with more header lines than this is refused (``400``).
MAX_HEADERS = 200


class MalformedMessage(ConnectionError):
    """A peer sent bytes that are not a well-formed HTTP/1.1 message."""


class Request(NamedTuple):
    method: str
    target: str
    path: str
    #: ``parse_qs`` of the target's query string
    query: dict[str, list[str]]
    #: header names lower-cased
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


class Response(NamedTuple):
    status: int
    body: bytes
    content_type: str = "application/json"
    #: extra headers (``Retry-After``, the result digest, ...)
    headers: dict[str, str] | None = None

    def encode(self, *, keep_alive: bool = True) -> bytes:
        head = [
            f"HTTP/1.1 {self.status} {HTTPStatus(self.status).phrase}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        head += [f"{name}: {value}" for name, value in
                 (self.headers or {}).items()]
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + self.body


def json_response(
    status: int, payload: Any, headers: dict[str, str] | None = None
) -> Response:
    return Response(status, json.dumps(payload).encode("utf-8"),
                    headers=headers)


def jittered_retry_after(seconds: float) -> float:
    """Spread one ``Retry-After`` hint uniformly across ±50%.

    Every client that hit the same breaker/drain rejection gets a
    *different* retry time, so they do not come back as one synchronized
    thundering herd exactly ``seconds`` later.  Deliberately *not*
    seeded: decorrelation is the point.
    """
    return max(0.05, seconds * random.uniform(0.5, 1.5))


def error_response(exc: ReproError) -> Response:
    """A typed error reply: status from :data:`STATUS_BY_CODE`, the
    exception's wire form as the body, and its retry hint (jittered) as
    ``Retry-After``."""
    retry = exc.retry_after
    return json_response(
        STATUS_BY_CODE.get(exc.code, 500), exc.to_dict(),
        None if retry is None
        else {"Retry-After": f"{jittered_retry_after(retry):g}"},
    )


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, dict[str, str]] | None:
    """A message's start line and lower-cased headers; ``None`` on a
    clean end of stream before the start line."""
    try:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        headers: dict[str, str] = {}
        for count in itertools.count():
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n"):
                break
            if not hline:
                raise ConnectionError("peer truncated the message head")
            if count == MAX_HEADERS:
                raise MalformedMessage(f"more than {MAX_HEADERS} headers")
            name, colon, value = hline.decode("latin-1").partition(":")
            if not colon or not name.strip():
                raise MalformedMessage(f"malformed header line {hline!r}")
            headers[name.strip().lower()] = value.strip()
    except ValueError as exc:  # a line past the stream's size limit
        raise MalformedMessage(str(exc)) from None
    return line.decode("latin-1").strip(), headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    raw = headers.get("content-length", "0")
    if not raw.isdigit():
        raise MalformedMessage(f"bad Content-Length {raw!r}")
    length = int(raw)
    return await reader.readexactly(length) if length else b""


async def read_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter | None = None,
) -> Request | None:
    """Read one request; ``None`` when the client closed the connection.

    Raises :class:`MalformedMessage` on a bad request line, too many or
    malformed headers, or a bad ``Content-Length``.  With ``writer``,
    an ``Expect: 100-continue`` is answered before the body is read.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    line, headers = head
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise MalformedMessage(f"malformed request line {line!r}")
    method, target, version = parts
    if writer is not None and \
            headers.get("expect", "").lower() == "100-continue":
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = await _read_body(reader, headers)
    connection = headers.get("connection", "").lower()
    keep_alive = connection == "keep-alive" or (
        version != "HTTP/1.0" and connection != "close"
    )
    split = urllib.parse.urlsplit(target)
    return Request(method, target, split.path,
                   urllib.parse.parse_qs(split.query), headers, body,
                   keep_alive)


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Read one response: ``(status, lower-cased headers, body)``."""
    head = await _read_head(reader)
    if head is None:
        raise ConnectionError("peer closed the connection")
    line, headers = head
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise MalformedMessage(f"malformed status line {line!r}")
    return int(parts[1]), headers, await _read_body(reader, headers)


class HttpServer:
    """The keep-alive HTTP/1.1 server loop around one async handler.

    The handler returns a :class:`Response`; a :class:`ReproError` it
    raises becomes the typed :func:`error_response`, and any other
    exception a typed ``500`` naming ``role``.  ``access_log`` writes
    one stderr line per answered request.  Loop-confined except
    :meth:`await_quiescence`, which another thread may call.
    """

    def __init__(
        self,
        handler: Callable[[Request], Awaitable[Response]],
        *,
        role: str = "server",
        access_log: bool = False,
    ) -> None:
        self._handler = handler
        self.role = role
        self.access_log = access_log
        self._server: asyncio.AbstractServer | None = None
        #: open connections: writer -> the task serving it
        self.connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self.in_flight = 0

    async def start(
        self, host: str | None = None, port: int | None = None, *,
        sock: socket.socket | None = None,
    ) -> tuple[str, int]:
        """Listen on ``host:port`` (or an already-bound ``sock``);
        returns the bound address."""
        self._server = await asyncio.start_server(
            self._serve, host, port, sock=sock
        )
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Stop accepting, close every open connection, and wait for
        the tasks serving them to end."""
        if self._server is None:
            return
        self._server.close()
        tasks = list(self.connections.values())
        for task in tasks:
            task.cancel()  # its connection closes on the way out
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    def await_quiescence(self, timeout_s: float) -> bool:
        """Block until no request is in flight (``True``) or the
        deadline passes (``False``)."""
        deadline = time.monotonic() + timeout_s
        while self.in_flight > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True

    async def _respond(self, request: Request) -> Response:
        try:
            return await self._handler(request)
        except ReproError as exc:
            return error_response(exc)
        except Exception as exc:  # a bug in the role: typed, not bare
            return error_response(ReproError(f"{self.role} failure: {exc}"))

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # asyncio sets TCP_NODELAY only on sockets created with proto
        # IPPROTO_TCP; a listener from socket.create_server has proto 0.
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self.connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await read_request(reader, writer)
                except MalformedMessage as exc:
                    writer.write(json_response(
                        400, {"error": f"malformed HTTP request: {exc}"}
                    ).encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.in_flight += 1
                try:
                    response = await self._respond(request)
                    writer.write(
                        response.encode(keep_alive=request.keep_alive)
                    )
                    await writer.drain()
                finally:
                    self.in_flight -= 1
                if self.access_log:
                    peer = writer.get_extra_info("peername") or ("-",)
                    print(f'{peer[0]} "{request.method} {request.target}" '
                          f'{response.status}', file=sys.stderr, flush=True)
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self.connections.pop(writer, None)
            writer.close()


class ConnectionPool:
    """Keep-alive client connections to one ``host:port``
    (event-loop confined)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange: ``(status, lower-cased headers, body)``.

        A stale pooled connection is retried once on a fresh one; a
        fresh connection's failure propagates.  Cancellation-safe: a
        request cancelled mid-exchange closes its connection instead of
        re-pooling it — the peer's half-written response would corrupt
        the next exchange on that socket.
        """
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        message = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1") + body
        for attempt in (0, 1):
            reused = bool(self.idle)
            if reused:
                reader, writer = self.idle.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            try:
                writer.write(message)
                await writer.drain()
                status, rheaders, payload = await read_response(reader)
            except asyncio.CancelledError:
                writer.close()
                raise
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                writer.close()
                if reused and attempt == 0:
                    continue  # the peer closed an idle connection
                raise
            if rheaders.get("connection", "").lower() == "close":
                writer.close()
            else:
                self.idle.append((reader, writer))
            return status, rheaders, payload
        raise ConnectionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        for _, writer in self.idle:
            writer.close()
        self.idle.clear()
