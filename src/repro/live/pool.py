"""The repository's one HTTP client: asyncio HTTP/1.1 over pooled keep-alive sockets.

The gateway forwards every request it receives, the load generator
issues tens of thousands of requests per second and the protocol ticks
hold a handful of small control conversations per round — at those
rates a fresh TCP connection per exchange spends more time in
connect/teardown than in the request itself and exhausts ephemeral
ports.  :class:`HttpPool` keeps idle connections per peer and reuses
them:

* ``request()`` borrows an idle connection (or dials a new one), sends
  one ``Connection: keep-alive`` exchange, and returns the connection to
  the idle list unless the server answered ``Connection: close``;
* a connection that fails mid-exchange is discarded.  The request is
  sent a second time only when a *reused* socket hit EOF or a reset
  before any response byte — the server closed it while it was parked —
  and never after a timeout or once a reply has begun: the peer may be
  acting on the first copy, and a ``create_obj`` offer is not idempotent;
* at most ``max_idle_per_peer`` sockets are parked per peer; extras are
  closed on release rather than cached forever.

Every failed exchange — connect, I/O, a reply outside the HTTP envelope,
and (through :meth:`HttpPool.fetch`) an error status — is one exception,
:class:`TransportError`.

The pool is deliberately not a semaphore: concurrency limits belong to
the caller (the loadgen's open-loop concurrency bound, the gateway's
in-flight gate), the pool only amortises connection setup.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.live.httpd import BadRequest, parse_head

Address = tuple[str, int]


class TransportError(Exception):
    """An HTTP exchange failed (connect, I/O, malformed reply, or status).

    ``status`` is the HTTP status when the exchange completed with an
    error reply (else ``None``); ``retry_after`` carries a 429's parsed
    backpressure hint in seconds.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _take_reply(buffer: bytearray) -> tuple[int, dict[str, str], bytes, bool] | None:
    """Pop the complete reply ``(status, headers, body, keep_alive)`` off ``buffer``."""
    head = parse_head(buffer)
    if head is None:
        return None
    status_line, headers, body_start, end = head
    try:
        version, code = status_line.split(" ", 2)[:2]
        status = int(code)
    except ValueError as exc:  # too few parts, or no number
        raise BadRequest(f"malformed status line {status_line!r}") from exc
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"malformed status line {status_line!r}")
    if len(buffer) < end:
        return None
    body = bytes(buffer[body_start:end])
    # Bytes behind the reply were never asked for: do not park such a socket.
    keep_alive = (
        len(buffer) == end and headers.get("connection", "keep-alive").lower() != "close"
    )
    buffer.clear()
    return status, headers, body, keep_alive


class _Connection(asyncio.Protocol):
    """One dialled socket, one exchange at a time, the reply framed as it arrives."""

    def __init__(self) -> None:
        self.transport = None  # set by connection_made
        self.buffer = bytearray()
        self.waiter: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    async def exchange(
        self, message: bytes, deadline: float
    ) -> tuple[int, dict[str, str], bytes, bool] | None:
        """Send ``message`` and await one reply.

        ``None`` means EOF or a reset before any response byte: what a
        socket the server closed while it was parked looks like.
        """
        loop = asyncio.get_running_loop()
        self.waiter = loop.create_future()
        timer = loop.call_later(deadline, self._expire)
        self.transport.write(message)
        try:
            return await self.waiter
        finally:
            timer.cancel()

    def _expire(self) -> None:
        if not self.waiter.done():
            self.waiter.set_exception(TimeoutError())

    def data_received(self, data: bytes) -> None:
        waiter = self.waiter
        if waiter is None or waiter.done():
            self.transport.close()  # bytes nobody asked for: never park this again
            return
        self.buffer += data
        try:
            reply = _take_reply(self.buffer)
        except BadRequest as exc:
            waiter.set_exception(exc)
        else:
            if reply is not None:
                waiter.set_result(reply)

    def connection_lost(self, exc: Exception | None) -> None:
        waiter = self.waiter
        if waiter is None or waiter.done():
            return
        if self.buffer:
            waiter.set_exception(exc or ConnectionError("connection closed mid-reply"))
        else:
            waiter.set_result(None)


class HttpPool:
    """Keep-alive HTTP/1.1 connections, pooled per peer address."""

    def __init__(
        self, *, timeout: float = 10.0, max_idle_per_peer: int = 32
    ) -> None:
        self.timeout = timeout
        self.max_idle_per_peer = max_idle_per_peer
        self._idle: dict[Address, list[_Connection]] = {}
        #: Connections dialled / exchanges served over a reused socket,
        #: for tests and the loadgen's efficiency metrics.
        self.dials = 0
        self.reuses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    async def request(
        self,
        address: Address,
        method: str,
        path: str,
        *,
        payload: dict[str, Any] | None = None,
        body: bytes | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange; returns ``(status, headers, body)``.

        ``payload`` is JSON-encoded; ``body`` is sent raw.  Raises
        :class:`TransportError` on connect or I/O failure and on a reply
        outside the HTTP envelope, never on an HTTP error status — that
        is :meth:`fetch`, or the caller's own protocol.
        """
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        deadline = timeout if timeout is not None else self.timeout
        host, port = address
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: keep-alive",
        ]
        if payload is not None:
            head.append("Content-Type: application/json")
        if body is not None:
            head.append(f"Content-Length: {len(body)}")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")
        stale = False
        while True:
            connection, reused = await self._acquire(address, deadline)
            reply = None
            try:
                reply = await connection.exchange(message, deadline)
            except (OSError, BadRequest) as exc:
                raise TransportError(f"{method} {host}:{port}{path}: {exc}") from exc
            finally:
                if reply is None:  # failed, cancelled, or the parked socket was stale
                    connection.transport.close()
            if reply is not None:
                break
            if stale or not reused:
                raise TransportError(
                    f"{method} {host}:{port}{path}: closed before any response byte"
                )
            stale = True  # one more attempt, on a fresh dial
        status, headers, data, keep_alive = reply
        if keep_alive:
            self._release(address, connection)
        else:
            connection.transport.close()
        return status, headers, data

    async def fetch(
        self,
        address: Address,
        method: str,
        path: str,
        *,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> bytes:
        """Like :meth:`request`, but an error status is a failed exchange."""
        status, headers, data = await self.request(
            address, method, path, payload=payload, timeout=timeout
        )
        if status >= 400:
            retry_after = None
            if status == 429:
                try:
                    retry_after = float(headers.get("retry-after", ""))
                except ValueError:
                    pass
            raise TransportError(
                f"{method} {address[0]}:{address[1]}{path} -> {status} {data[:200]!r}",
                status=status,
                retry_after=retry_after,
            )
        return data

    async def fetch_json(
        self,
        address: Address,
        method: str,
        path: str,
        *,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """:meth:`fetch`, decoding the body as a JSON object (empty: ``{}``)."""
        data = await self.fetch(address, method, path, payload=payload, timeout=timeout)
        if not data:
            return {}
        try:
            decoded = json.loads(data)
        except ValueError as exc:
            raise TransportError(f"non-JSON reply from {path}: {data[:200]!r}") from exc
        if not isinstance(decoded, dict):
            raise TransportError(f"non-object JSON reply from {path}")
        return decoded

    async def close(self) -> None:
        """Close every idle connection (in-flight ones close on return)."""
        for connections in self._idle.values():
            for connection in connections:
                connection.transport.close()
        self._idle.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    async def _acquire(
        self, address: Address, deadline: float
    ) -> tuple[_Connection, bool]:
        idle = self._idle.get(address)
        while idle:
            connection = idle.pop()
            if connection.transport.is_closing():
                continue  # the server hung up while it was parked
            self.reuses += 1
            return connection, True
        try:
            async with asyncio.timeout(deadline):
                _, connection = await asyncio.get_running_loop().create_connection(
                    _Connection, *address
                )
        except OSError as exc:
            raise TransportError(f"connect {address[0]}:{address[1]}: {exc}") from exc
        self.dials += 1
        return connection, False

    def _release(self, address: Address, connection: _Connection) -> None:
        idle = self._idle.setdefault(address, [])
        if len(idle) < self.max_idle_per_peer and not connection.transport.is_closing():
            idle.append(connection)
        else:
            connection.transport.close()


__all__ = ["Address", "HttpPool", "TransportError"]
