"""The ``asyncio.Protocol`` framing against the retired stream parsers.

``tests/live/oracle_streams.py`` holds the readers ``live/httpd.py`` and
``live/pool.py`` used until PR 21.  Hypothesis builds requests and
replies — valid ones, each size limit one byte either side, malformed
start lines, colon-less header lines, made-up lengths, ``Connection:
close``, query strings with blanks and repeats, messages cut short —
delivers them in arbitrary chunkings, and requires one verdict from old
and new: equal ``Request`` fields / reply tuples, or a refusal of the
same class (a 400; a failed exchange).  The shapes PR 21 tightened on
purpose are the named rows of ``TIGHTENED_*``: there the oracle accepts
and the shared grammar refuses.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import httpd, pool
from repro.live.httpd import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE,
    BadRequest,
    Response,
)
from tests.live import oracle_streams

FAILED = "failed exchange"


@pytest.fixture(scope="module")
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


class FakeTransport:
    """What the two protocol classes call on a transport, recorded."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


class CapturingServer:
    """Stands in for ``HttpServer``: records what would be dispatched."""

    def __init__(self) -> None:
        self._connections: set = set()
        self.errors = {400: 0, 500: 0}
        self.requests: list[httpd.Request] = []

    def _dispatch(self, request: httpd.Request) -> Response:
        self.requests.append(request)
        return Response()


# -- verdicts ---------------------------------------------------------------


def new_request_verdict(chunks: list[bytes]):
    """The dispatched ``Request``, 400, or ``None`` (clean EOF)."""
    server, transport = CapturingServer(), FakeTransport()
    connection = httpd._Connection(server)
    connection.connection_made(transport)
    for chunk in chunks:
        if transport.closed:
            break
        connection.data_received(chunk)
    if not transport.closed:
        connection.eof_received()
    assert transport.closed  # EOF always ends the conversation
    if server.requests:
        return server.requests[0]
    if transport.written:
        assert transport.written.startswith(b"HTTP/1.1 400 ")
        return 400
    return None


def old_request_verdict(loop, data: bytes):
    reader = asyncio.StreamReader(loop=loop)
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return loop.run_until_complete(oracle_streams.read_request(reader))
    except BadRequest:
        return 400


def new_reply_verdict(loop, chunks: list[bytes]):
    """The reply tuple, ``None`` (stale socket) or ``FAILED``."""
    connection = pool._Connection()
    connection.connection_made(FakeTransport())
    connection.waiter = waiter = loop.create_future()
    for chunk in chunks:
        if waiter.done():
            break
        connection.data_received(chunk)
    if not waiter.done():
        connection.connection_lost(None)  # EOF: the transport closes itself
    failure = waiter.exception()
    if failure is not None:
        # Exactly what HttpPool.request turns into a TransportError.
        assert isinstance(failure, (OSError, BadRequest))
        return FAILED
    return waiter.result()


def old_reply_verdict(loop, data: bytes):
    reader = asyncio.StreamReader(loop=loop)
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return loop.run_until_complete(oracle_streams.read_reply(reader))
    except (OSError, asyncio.IncompleteReadError, ValueError):
        return FAILED  # the tuple the old request() caught


# -- generators -------------------------------------------------------------

WORD = st.text("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789-_.~", min_size=1, max_size=8)
QUERY_PART = st.text("abcXYZ019-_.~%41%2F+", max_size=6)
HEADER_NAMES = ("Host", "X-Trace", "Accept", "User-Agent", "x-trace", "Connection")


@st.composite
def query_strings(draw) -> str:
    """Blank values, bare keys, empty pairs and repeated keys included."""
    keys = draw(st.lists(QUERY_PART, min_size=1, max_size=3))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.sampled_from(keys))
        pairs.append(draw(st.sampled_from([f"{key}=", key, "", f"{key}={draw(QUERY_PART)}"])))
    return "&".join(pairs)


@st.composite
def request_lines(draw) -> str:
    path = "/" + "/".join(draw(st.lists(WORD, max_size=3)))
    query = draw(st.one_of(st.just(None), query_strings()))
    target = path if query is None else f"{path}?{query}"
    method = draw(st.sampled_from(["GET", "POST", "get", "DELETE"]))
    return draw(
        st.sampled_from(
            [f"{method} {target} HTTP/1.1"] * 6
            + [
                f"{method} {target} HTTP/1.0",
                f"{method} {target}",  # no version
                f"{method} {target} HTTP/1.1 extra",
                f"{method}  {target} HTTP/1.1",  # two blanks: four parts
                f"{method} {target} HTTP/2",
                f"{method} {target} SPDY/1.1",
                "NONSENSE",
                "",
            ]
        )
    )


STATUS_LINES = st.sampled_from(
    ["HTTP/1.1 200 OK"] * 4
    + [
        "HTTP/1.0 404 Not Found",
        "HTTP/1.1 204",  # no reason phrase
        "HTTP/1.1 429 Too Many Requests",
        "HTTP/1.1 abc",
        "HTTP/1.1",
        "HTTP/1.1  200 OK",  # two blanks: an empty status
        "HTTP/2 200 OK",
        "ICY 200 OK",
        "NONSENSE",
        "",
    ]
)


@st.composite
def messages(draw, *, reply: bool) -> bytes:
    """One HTTP message, usually well-formed, possibly cut short.

    Never one of the ``TIGHTENED_*`` shapes: at most one
    ``Content-Length``, ``Transfer-Encoding`` only without one and only
    on requests, colon-less lines only on requests, no bare LF, a reply
    head inside the (new) head limits and nothing behind a reply.
    """
    start_line = draw(STATUS_LINES if reply else request_lines())
    headers = [
        f"{draw(st.sampled_from(HEADER_NAMES))}:{draw(st.sampled_from(['', ' ', '  ']))}"
        f"{draw(st.sampled_from(['close', 'Close', 'keep-alive', 'v', 'a b', 'x:y', '']))}"
        for _ in range(draw(st.integers(0, 4)))
    ]
    body = draw(st.binary(max_size=48))
    length = draw(
        st.sampled_from(
            [str(len(body))] * 6
            + [None, "ten", "-1", "", "+2", " 3 ", "1_0", str(len(body) + 7),
               str(MAX_BODY_BYTES + 1), "99999999999"]
        )
    )
    if reply:
        # A reply is never followed by bytes nobody asked for (its own test).
        try:
            body = body[: max(int(length or 0), 0)]
        except ValueError:
            pass
    if length is not None:
        name = draw(st.sampled_from(["Content-Length", "content-length", "CONTENT-LENGTH"]))
        headers.insert(draw(st.integers(0, len(headers))), f"{name}: {length}")
    elif not reply and draw(st.integers(0, 7)) == 0:
        headers.append("Transfer-Encoding: chunked")
    if not reply and draw(st.integers(0, 11)) == 0:
        headers.insert(draw(st.integers(0, len(headers))), "no colon here")
    if not reply:
        limit = draw(st.sampled_from([None] * 3 + ["line", "headers"]))
        nudge = draw(st.sampled_from([-1, 0, 1]))
        if limit == "line" and " " in start_line:
            # Stretch the target so the line, CRLF included, sits on the limit.
            method, _, rest = start_line.partition(" ")
            room = MAX_REQUEST_LINE + nudge - len(start_line) - 3
            start_line = f"{method} /{'p' * room}{rest}" if rest.startswith("/") else start_line
        elif limit == "headers":
            used = sum(len(header) + 2 for header in headers)
            room = MAX_HEADER_BYTES + nudge - used - len("X-Pad: \r\n")
            headers.append("X-Pad: " + "h" * room)
    head = "\r\n".join([start_line, *headers]) + "\r\n\r\n"
    data = head.encode("latin-1") + body
    if draw(st.integers(0, 5)) == 0:
        data = data[: draw(st.integers(0, len(data)))]  # the peer hangs up early
    return data


@st.composite
def chunkings(draw, data: bytes) -> list[bytes]:
    """``data`` whole, byte by byte, or cut at a few arbitrary points."""
    mode = draw(st.sampled_from(["whole", "bytes", "cuts"]))
    if mode == "whole":
        return [data]
    if mode == "bytes" and len(data) <= 512:
        return [data[i : i + 1] for i in range(len(data))]
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), min_size=1, max_size=6)))
    edges = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:]) if a < b]


# -- the property -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_requests_get_the_stream_parsers_verdict(loop, data):
    message = data.draw(messages(reply=False))
    chunks = data.draw(chunkings(message))
    assert new_request_verdict(chunks) == old_request_verdict(loop, message)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replies_get_the_stream_parsers_verdict(loop, data):
    message = data.draw(messages(reply=True))
    chunks = data.draw(chunkings(message))
    assert new_reply_verdict(loop, chunks) == old_reply_verdict(loop, message)


@pytest.mark.parametrize("extra", [0, 1])
def test_the_body_limit_is_where_the_stream_parsers_had_it(loop, extra):
    """Too large to generate per example: a body of exactly the limit is
    taken by all four readers, one byte more is refused before it is read."""
    body = b"b" * (MAX_BODY_BYTES + extra)
    request = b"POST /big HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    verdict = new_request_verdict([request])
    assert verdict == old_request_verdict(loop, request)
    assert verdict == 400 if extra else verdict.body == body
    verdict = new_reply_verdict(loop, [reply[:100], reply[100:]])
    assert verdict == old_reply_verdict(loop, reply)
    assert verdict == FAILED if extra else verdict[2] == body


# -- what PR 21 tightened, by name -------------------------------------------

TIGHTENED_REQUESTS = {
    # The stream parser's ``elif`` never looked at Transfer-Encoding here.
    "content-length-with-transfer-encoding": (
        b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\nok"
    ),
    # ...and let the last of two differing lengths win.
    "conflicting-content-length": (
        b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 1\r\n\r\nok"
    ),
    # ...and read a bare LF as part of a header value.
    "bare-lf-in-head": b"GET /x HTTP/1.1\r\nHost: t\nX-Evil: 1\r\n\r\n",
}

TIGHTENED_REPLIES = {
    "content-length-with-transfer-encoding": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\nok"
    ),
    "conflicting-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 1\r\n\r\nok"
    ),
    "bare-lf-framing": b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
    # The pool now reads replies by the server's rules, which already
    # refused these three on a request:
    "transfer-encoding-without-length": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
    "header-line-without-colon": b"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 0\r\n\r\n",
    "status-line-past-the-line-limit": (
        b"HTTP/1.1 200 " + b"K" * MAX_REQUEST_LINE + b"\r\nContent-Length: 0\r\n\r\n"
    ),
}


@pytest.mark.parametrize("name", sorted(TIGHTENED_REQUESTS))
def test_tightened_request_shapes_are_now_refused(loop, name):
    message = TIGHTENED_REQUESTS[name]
    assert isinstance(old_request_verdict(loop, message), httpd.Request)
    assert new_request_verdict([message]) == 400
    assert new_request_verdict([message[i : i + 1] for i in range(len(message))]) == 400


@pytest.mark.parametrize("name", sorted(TIGHTENED_REPLIES))
def test_tightened_reply_shapes_are_now_refused(loop, name):
    message = TIGHTENED_REPLIES[name]
    assert isinstance(old_reply_verdict(loop, message), tuple)
    assert new_reply_verdict(loop, [message]) == FAILED
    assert new_reply_verdict(loop, [message[:7], message[7:]]) == FAILED


def test_bytes_behind_a_reply_keep_the_socket_out_of_the_pool(loop):
    """The pool never pipelines, so a peer that sends more than it was
    asked for is not one to park; the stream reader could not tell."""
    message = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n"
    assert old_reply_verdict(loop, message) == (200, {"content-length": "2"}, b"ok", True)
    assert new_reply_verdict(loop, [message]) == (200, {"content-length": "2"}, b"ok", False)
