"""The retired ``asyncio`` streams parsers, kept as the framing oracle.

Until PR 21 ``live/httpd.py`` read a request one ``readuntil`` per line
and ``live/pool.py`` a reply one ``readline`` per line.  Both now frame a
message in ``data_received`` through ``httpd.parse_head``; these are the
old readers, verbatim but for their names, so
``tests/live/test_framing_oracle.py`` can require the same verdict from
old and new on any byte sequence in any chunking.
"""

from __future__ import annotations

import asyncio
from urllib.parse import parse_qsl, urlsplit

from repro.live.httpd import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_REQUEST_LINE,
    BadRequest,
    Request,
)


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; None on clean EOF."""
    try:
        raw_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest("truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequest("request line too long") from exc
    if len(raw_line) > MAX_REQUEST_LINE:
        raise BadRequest("request line too long")
    parts = raw_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest("malformed request line")
    method, target, _version = parts

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw_header = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise BadRequest("truncated headers") from exc
        if raw_header == b"\r\n":
            break
        header_bytes += len(raw_header)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("headers too large")
        name, sep, value = raw_header.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise BadRequest("bad Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest("body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise BadRequest("truncated body") from exc
    elif headers.get("transfer-encoding"):
        raise BadRequest("chunked bodies not supported")

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


async def read_reply(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes, bool] | None:
    """Read one reply: ``(status, headers, body, keep_alive)``.

    ``None`` means EOF before any response byte: what a socket the
    server closed while it was parked looks like.  A status line or
    length the peer made up raises ``ValueError``; the pool turned that,
    ``ConnectionError`` and ``IncompleteReadError`` into one failed
    exchange.
    """
    status_line = await reader.readline()
    if not status_line:
        return None
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line == b"":
            raise ConnectionError("connection closed mid-headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ValueError(f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    data = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    return status, headers, data, keep_alive
