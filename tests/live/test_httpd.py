"""Tests for the stdlib asyncio HTTP server underlying the live runtime."""

import asyncio
import json

import pytest

from repro.live.httpd import (
    BadRequest,
    HttpServer,
    Request,
    Router,
    error_response,
    json_response,
)
from repro.live.loadgen import _http_get


def build_test_router() -> Router:
    router = Router()

    async def hello(request, params):
        return json_response({"hello": "world", "query": request.query})

    async def item(request, params):
        return json_response({"item": params["name"]})

    async def echo(request, params):
        return json_response({"echo": request.json()})

    async def boom(request, params):
        raise RuntimeError("kaboom")

    router.add("GET", "/hello", hello)
    router.add("GET", "/item/{name}", item)
    router.add("POST", "/echo", echo)
    router.add("GET", "/boom", boom)
    return router


def run_round_trips(exchange):
    """Start a throwaway server, run the async exchange against it."""

    async def main():
        server = HttpServer(build_test_router(), port=0)
        port = await server.start()
        try:
            return await exchange("127.0.0.1", port)
        finally:
            await server.stop()

    return asyncio.run(main())


def test_get_with_query_and_capture():
    async def exchange(host, port):
        status, _headers, body = await _http_get(host, port, "/hello?a=1&b=x", 5.0)
        assert status == 200
        assert json.loads(body) == {"hello": "world", "query": {"a": "1", "b": "x"}}
        status, _headers, body = await _http_get(host, port, "/item/widget", 5.0)
        assert status == 200
        assert json.loads(body) == {"item": "widget"}

    run_round_trips(exchange)


def test_unknown_path_404_and_wrong_method_405():
    async def exchange(host, port):
        status, _headers, _body = await _http_get(host, port, "/nope", 5.0)
        assert status == 404
        # /echo exists but only for POST.
        status, _headers, _body = await _http_get(host, port, "/echo", 5.0)
        assert status == 405

    run_round_trips(exchange)


def test_handler_exception_becomes_500():
    async def exchange(host, port):
        status, _headers, body = await _http_get(host, port, "/boom", 5.0)
        assert status == 500
        assert json.loads(body) == {"error": "internal error"}

    run_round_trips(exchange)


async def _raw_exchange(host, port, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_post_json_round_trip_and_keep_alive():
    async def exchange(host, port):
        body = json.dumps({"n": 7}).encode()
        request = (
            b"POST /echo HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        # Two requests down one keep-alive connection; close on the last.
        closing = request.replace(b"Host: t", b"Host: t\r\nConnection: close")
        raw = await _raw_exchange(host, port, request + closing)
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert raw.count(b'{"echo": {"n": 7}}') == 2
        assert b"Connection: keep-alive" in raw
        assert b"Connection: close" in raw

    run_round_trips(exchange)


def test_malformed_request_line_is_400():
    async def exchange(host, port):
        raw = await _raw_exchange(host, port, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    run_round_trips(exchange)


@pytest.mark.parametrize(
    "payload",
    [
        b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
        b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\n{}",
        b"GET /hello HTTP/1.1\nHost: t\n\n",
    ],
    ids=["length-and-transfer-encoding", "conflicting-lengths", "bare-lf-head"],
)
def test_a_smuggling_shaped_request_is_400(payload):
    """One grammar on both sides of the shard -> shard relay: a request
    two parsers could frame differently is refused, not guessed at."""

    async def exchange(host, port):
        raw = await _raw_exchange(host, port, payload)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert raw.count(b"HTTP/1.1 ") == 1 and b"Connection: close" in raw

    run_round_trips(exchange)


def test_bad_json_body_is_400():
    async def exchange(host, port):
        payload = (
            b"POST /echo HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            b"Content-Length: 8\r\n\r\nnot json"
        )
        raw = await _raw_exchange(host, port, payload)
        assert raw.startswith(b"HTTP/1.1 400 ")

    run_round_trips(exchange)


def test_request_json_rejects_non_object():
    import pytest

    request = Request("POST", "/x", {}, {}, body=b"[1, 2]")
    with pytest.raises(BadRequest):
        request.json()
    assert Request("POST", "/x", {}, {}, body=b"").json() == {}


def test_router_resolution_precedence():
    router = build_test_router()
    handler, params = router.resolve("GET", "/item/abc")
    assert params == {"name": "abc"}
    assert router.resolve("DELETE", "/hello") == 405
    assert router.resolve("GET", "/item/a/b") == 404


def test_error_response_shape():
    response = error_response(503, "down")
    assert response.status == 503
    assert json.loads(response.body) == {"error": "down"}
    encoded = response.encode(keep_alive=False)
    assert encoded.startswith(b"HTTP/1.1 503 Service Unavailable\r\n")
    assert b"Connection: close" in encoded
