"""A minimal asyncio HTTP/1.1 server with pattern routing.

The container ships no third-party HTTP stack, so the live runtime
carries its own: just enough HTTP/1.1 over :class:`asyncio.Protocol`
for the control plane and data plane — request-line + headers parsing,
``Content-Length`` bodies, keep-alive, JSON helpers, and a router with
``{name}`` path captures.  Anything outside that envelope gets a 400.
A message is framed where its bytes arrive (``data_received``) by
:func:`parse_head`, the one HTTP grammar in the repository: the server
reads requests with it and :class:`~repro.live.pool.HttpPool` replies.

Handlers run on the event loop and answer with a :class:`Response`,
written in the callback that framed the request; an awaitable of one
(an ``async def`` awaiting a peer — never blocking, the loop serves that
peer too), which gets one Task; or a :data:`Deferred`, called with a
``respond`` function for a later callback to answer through, no Task at
all (DESIGN §8 "Answering").  :class:`BadRequest` and a control body's
:class:`~repro.core.runtime.WireError` answer 400.
"""

from __future__ import annotations

import asyncio
import json
import logging
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from functools import partial
from urllib.parse import unquote

from repro.core.runtime import WireError

log = logging.getLogger(__name__)

#: Upper bounds keeping a misbehaving peer from ballooning memory.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Bytes a peer may send ahead of the answer in hand before its socket
#: stops being read.
MAX_READ_AHEAD = 64 * 1024

_STATUS_PHRASES = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """The peer sent something outside the supported HTTP envelope."""


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: The request target as sent (``/path?query``), for a relay to forward.
    target: str = field(default="", compare=False, init=False)

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except ValueError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload


@dataclass(slots=True)
class Response:
    """One HTTP response; ``json_response`` is the common constructor."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/octet-stream"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, *, keep_alive: bool) -> bytes:
        head = (
            f"HTTP/1.1 {self.status} {_STATUS_PHRASES.get(self.status, 'Unknown')}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in self.headers.items():
            head += f"{name}: {value}\r\n"
        return (head + "\r\n").encode("ascii") + self.body


def json_response(payload: object, status: int = 200) -> Response:
    return Response(
        status=status,
        body=json.dumps(payload).encode("utf-8"),
        content_type="application/json",
    )


def error_response(status: int, message: str) -> Response:
    return json_response({"error": message}, status=status)


def throttle_response(retry_after: float) -> Response:
    """A 429 carrying the backpressure brake's retry hint.

    ``Retry-After`` is sent in (possibly fractional) seconds — the RFC's
    integer form is useless at sub-second control-plane timescales, and
    every client in this deployment parses it as a float.
    """
    response = json_response({"error": "throttled"}, status=429)
    response.headers["Retry-After"] = f"{max(retry_after, 0.0):.3f}"
    return response


Deferred = Callable[[Callable[[Response | Awaitable[Response]], None]], None]
Answer = Response | Awaitable[Response] | Deferred
Handler = Callable[[Request, dict[str, str]], Answer]


class Router:
    """Maps ``METHOD /path/{capture}`` patterns to handlers; the first route
    registered for a path and method wins.  A path that a capture-free
    pattern spells is answered from a table (DESIGN §8 "Codec")."""

    def __init__(self) -> None:
        self._captures: list[tuple[str, tuple[str, ...], Handler]] = []
        #: Static path -> method -> (handler, params) of the first route matching it.
        self._exact: dict[str, dict[str, tuple[Handler, dict[str, str]]]] = {}

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(pattern.strip("/").split("/")) if pattern.strip("/") else ()
        route = (method.upper(), segments, handler)
        if any(s.startswith("{") and s.endswith("}") for s in segments):
            self._captures.append(route)
            for path in self._exact:
                self._enter(path, route)
            return
        path = "/".join(segments)
        if path not in self._exact:  # the captures registered before it come first
            self._exact[path] = {}
            for capture in self._captures:
                self._enter(path, capture)
        self._exact[path].setdefault(route[0], (handler, {}))

    def _enter(self, path: str, route: tuple[str, tuple[str, ...], Handler]) -> None:
        method, segments, handler = route
        params = _match_segments(segments, tuple(path.split("/")) if path else ())
        if params is not None:
            self._exact[path].setdefault(method, (handler, params))

    def resolve(
        self, method: str, path: str
    ) -> tuple[Handler, dict[str, str]] | int:
        """Find a handler, or the error status (404/405) to return."""
        method = method.upper()
        key = path.strip("/")
        methods = self._exact.get(key)
        if methods is not None:
            route = methods.get(method)
            return 405 if route is None else (route[0], dict(route[1]))
        segments = tuple(key.split("/")) if key else ()
        path_matched = False
        for route_method, route_segments, handler in self._captures:
            params = _match_segments(route_segments, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method:
                return handler, params
        return 405 if path_matched else 404


def _match_segments(
    pattern: tuple[str, ...], segments: tuple[str, ...]
) -> dict[str, str] | None:
    if len(pattern) != len(segments):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def parse_head(buffer: bytes | bytearray) -> tuple[str, dict[str, str], int, int] | None:
    """Frame the HTTP/1.1 message at the front of ``buffer``.

    ``None`` until the head is complete, then ``(start line, headers,
    body start, message end)``: the body is ``buffer[start:end]`` once
    that much has arrived.  This is the one grammar for both directions
    — requests here, replies in :mod:`repro.live.pool` — and it is
    strict where a relay could be fooled: CRLF framing only, one
    ``Content-Length`` value, no ``Transfer-Encoding``, every limit
    checked before a body byte is waited for.
    """
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        if b"\n\n" in buffer:
            raise BadRequest("head is not CRLF-framed")
        if len(buffer) <= MAX_REQUEST_LINE + MAX_HEADER_BYTES:
            return None
        end = len(buffer)  # past both limits together: one of them is broken below
    lines = buffer[:end].decode("latin-1").split("\r\n")
    start_line = lines[0]
    if len(start_line) + 2 > MAX_REQUEST_LINE:
        raise BadRequest("request line too long")
    if end - len(start_line) > MAX_HEADER_BYTES:
        raise BadRequest("headers too large")
    if buffer.count(b"\n", 0, end) != len(lines) - 1:
        raise BadRequest("head is not CRLF-framed")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest("malformed header line")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise BadRequest("conflicting Content-Length headers")
        headers[name] = value
    if headers.get("transfer-encoding"):  # with or without a Content-Length
        raise BadRequest("chunked bodies not supported")
    try:
        length = int(headers.get("content-length", 0))
    except ValueError as exc:
        raise BadRequest("bad Content-Length") from exc
    if not 0 <= length <= MAX_BODY_BYTES:
        raise BadRequest("body too large")
    return start_line, headers, end + 4, end + 4 + length


def _take_request(buffer: bytearray) -> Request | None:
    """Pop one complete request off the front of ``buffer``, if there is one."""
    head = parse_head(buffer) if buffer else None  # drained: the usual case after an answer
    if head is None:
        return None
    request_line, headers, body_start, end = head
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest("malformed request line")
    if len(buffer) < end:
        return None
    body = bytes(buffer[body_start:end])
    del buffer[:end]
    path, _, query = parts[1].partition("?")
    request = Request(parts[0].upper(), path or "/", _split_query(query), headers, body)
    request.target = parts[1]
    return request


def _split_query(query: str) -> dict[str, str]:
    """``dict(parse_qsl(query, keep_blank_values=True))``: only a pair
    holding ``%`` or ``+`` pays for unquoting (DESIGN §8 "Codec")."""
    pairs: dict[str, str] = {}
    for pair in query.split("&"):
        if pair:
            name, _, value = pair.partition("=")
            if "%" in pair or "+" in pair:
                name, value = unquote(name.replace("+", " ")), unquote(value.replace("+", " "))
            pairs[name] = value
    return pairs


class _Connection(asyncio.Protocol):
    """One accepted socket: requests framed as they arrive, answered in order."""

    def __init__(self, server: HttpServer) -> None:
        self.server = server
        self.transport = None  # set by connection_made
        self.buffer = bytearray()
        #: The answer pending for the request in hand (a Task, or a deferred
        #: answer's Future); requests behind it wait in ``buffer``.
        self.task: asyncio.Future | None = None
        self.write_paused = False
        self.eof = False
        #: The server is stopping: the answer in hand closes the socket.
        self.last = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        # A handler still running finishes (a CreateObj offer is acted on
        # whether or not the peer waits); its answer is then dropped.
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.task is None and not self.write_paused:
            self._advance()
        elif len(self.buffer) > MAX_READ_AHEAD:
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        if self.task is None and not self.write_paused:
            self._advance()
        return True  # the answer in hand still goes out; _advance closes after it

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.task is None:
            self._advance()

    def _advance(self) -> None:
        """Dispatch the buffered requests in order until one has to wait."""
        transport = self.transport
        transport.resume_reading()
        while self.task is None and not self.write_paused and not transport.is_closing():
            try:
                request = _take_request(self.buffer)
                if request is None and self.eof and self.buffer:
                    raise BadRequest("truncated request")
            except BadRequest as exc:
                self._answer(error_response(400, str(exc)), False)
                return
            if request is None:
                if self.eof:
                    transport.close()
                return
            keep_alive = request.headers.get("connection", "keep-alive").lower() != "close"
            answer = self.server._dispatch(request)
            if isinstance(answer, Response):
                self._answer(answer, keep_alive)
            elif callable(answer):
                self._defer(request, answer, keep_alive)
            else:
                self.task = asyncio.create_task(self._respond(request, answer, keep_alive))

    def _defer(self, request: Request, answer: Deferred, keep_alive: bool) -> None:
        """Busy until ``answer`` calls ``respond`` with a response or an awaitable."""
        pending = self.task = asyncio.get_running_loop().create_future()

        def respond(response: Response | Awaitable[Response]) -> None:
            if pending.done():
                return
            pending.set_result(None)
            if not isinstance(response, Response):
                self.task = asyncio.create_task(self._respond(request, response, keep_alive))
                return
            self.task = None
            self._answer(response, keep_alive and not self.last)
            self._advance()

        try:
            answer(respond)
        except Exception as exc:  # noqa: BLE001 - server must answer, not die
            respond(_failure(request, exc))

    async def _respond(
        self, request: Request, answer: Awaitable[Response], keep_alive: bool
    ) -> None:
        try:
            response = await answer
        except Exception as exc:  # noqa: BLE001 - server must answer, not die
            response = _failure(request, exc)
        self.task = None
        self._answer(response, keep_alive and not self.last)
        self._advance()

    def _answer(self, response: Response, keep_alive: bool) -> None:
        transport = self.transport
        if transport.is_closing():
            return  # peer went away mid-exchange; nothing to answer
        transport.write(response.encode(keep_alive=keep_alive))
        if response.status in self.server.errors:
            self.server.errors[response.status] += 1
        if not keep_alive:
            transport.close()


def _failure(request: Request, exc: Exception) -> Response:
    if isinstance(exc, (BadRequest, WireError)):
        return error_response(400, str(exc))
    log.error("handler error for %s %s", request.method, request.path, exc_info=exc)
    return error_response(500, "internal error")


class HttpServer:
    """Serve a :class:`Router` on one listening socket."""

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0) -> None:
        self.router = router
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        #: Answers written with status 400 (malformed) and 500 (a handler crashed).
        self.errors = {400: 0, 500: 0}

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Connection, self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop accepting and close every connection: an idle one at once,
        a busy one as soon as the answer in hand is written."""
        if self._server is None:
            return
        self._server.close()
        for connection in self._connections:  # closing only schedules the removal
            if connection.task is None:
                connection.transport.close()
            else:
                connection.last = True
        # A deferred answer may hand over to a Task: wait until none is pending.
        while answering := [c.task for c in self._connections if c.task is not None]:
            await asyncio.wait(answering)
        await self._server.wait_closed()
        self._server = None

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def _dispatch(self, request: Request) -> Answer:
        """The handler's answer: a response, an awaitable or a deferred one."""
        resolved = self.router.resolve(request.method, request.path)
        if isinstance(resolved, int):
            return error_response(resolved, f"no route for {request.path}")
        handler, params = resolved
        try:
            return handler(request, params)
        except Exception as exc:  # noqa: BLE001 - server must answer, not die
            return _failure(request, exc)
