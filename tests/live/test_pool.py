"""Tests for the keep-alive HTTP connection pool."""

import asyncio

import pytest

from repro.live.httpd import HttpServer, Router, json_response
from repro.live.pool import HttpPool, TransportError


def echo_router() -> Router:
    router = Router()

    async def ping(request, params):
        return json_response({"ok": True, "path": request.path})

    router.add("GET", "/ping", ping)
    router.add("POST", "/echo", _echo)
    return router


async def _echo(request, params):
    return json_response({"got": request.json()})


def test_pool_reuses_keepalive_connections():
    async def main():
        server = HttpServer(echo_router(), port=0)
        port = await server.start()
        pool = HttpPool()
        try:
            for _ in range(5):
                status, _h, body = await pool.request(
                    ("127.0.0.1", port), "GET", "/ping"
                )
                assert status == 200
            # Sequential exchanges ride one parked connection.
            assert pool.dials == 1
            assert pool.reuses == 4
            payload = await pool.fetch_json(
                ("127.0.0.1", port), "POST", "/echo", payload={"n": 7}
            )
            assert payload == {"got": {"n": 7}}
            assert pool.dials == 1
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


def test_pool_concurrent_requests_dial_separate_connections():
    async def main():
        server = HttpServer(echo_router(), port=0)
        port = await server.start()
        pool = HttpPool()
        try:
            replies = await asyncio.gather(
                *(
                    pool.request(("127.0.0.1", port), "GET", "/ping")
                    for _ in range(8)
                )
            )
            assert all(status == 200 for status, _h, _b in replies)
            # All eight were in flight at once: no parked connection to
            # reuse, so each dialled its own.
            assert pool.dials == 8
            # ...and all eight are parked now, so another burst reuses.
            await asyncio.gather(
                *(
                    pool.request(("127.0.0.1", port), "GET", "/ping")
                    for _ in range(8)
                )
            )
            assert pool.dials == 8
            assert pool.reuses == 8
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


def test_pool_retries_once_when_parked_connection_went_stale():
    """A server that closes the socket after answering (while still
    claiming keep-alive) leaves a stale parked connection; the next
    request through the pool must transparently redial, not fail."""

    async def main():
        close_after_reply = True

        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            body = b'{"ok": true}'
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: keep-alive\r\n\r\n" + body
            )
            await writer.drain()
            if close_after_reply:
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pool = HttpPool()
        try:
            status, _h, _b = await pool.request(
                ("127.0.0.1", port), "GET", "/ping"
            )
            assert status == 200
            # Let the server-side close land so the parked connection is
            # observably stale before the next borrow.
            await asyncio.sleep(0.05)
            status, _h, _b = await pool.request(
                ("127.0.0.1", port), "GET", "/ping"
            )
            assert status == 200
            # Either the stale socket was detected at acquire (fresh
            # dial) or the exchange failed and was retried on a fresh
            # dial; both end with two real dials and a served request.
            assert pool.dials == 2
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_reused_socket_closed_before_any_reply_byte_is_redialled_once():
    """The in-exchange half of the stale-socket rule: the pool cannot see
    the close until it has written, so the request goes out again — on
    one fresh dial, and only because no response byte ever arrived."""

    async def main():
        seen = []

        async def handle(reader, writer):
            served = 0
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                seen.append(head.split(b"\r\n", 1)[0])
                if served:  # the connection's second request: hang up
                    break
                served += 1
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                    b"Connection: keep-alive\r\n\r\nok"
                )
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        address = ("127.0.0.1", server.sockets[0].getsockname()[1])
        pool = HttpPool()
        try:
            assert (await pool.request(address, "GET", "/one"))[0] == 200
            assert (await pool.request(address, "POST", "/two", body=b"x"))[0] == 200
            assert (pool.dials, pool.reuses) == (2, 1)
            assert [line.split()[1] for line in seen] == [b"/one", b"/two", b"/two"]
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_timeout_on_a_reused_socket_is_not_sent_again():
    """A peer that is merely slow may be acting on the request (a
    ``create_obj`` offer is not idempotent): the caller fails after one
    deadline and the handler has run exactly once."""

    async def main():
        calls = []
        done = asyncio.Event()
        router = echo_router()

        async def slow(request, params):
            calls.append(request.path)
            await asyncio.sleep(0.6)
            done.set()
            return json_response({"late": True})

        router.add("POST", "/slow", slow)
        server = HttpServer(router, port=0)
        address = ("127.0.0.1", await server.start())
        pool = HttpPool()
        try:
            assert (await pool.request(address, "GET", "/ping"))[0] == 200
            began = asyncio.get_running_loop().time()
            with pytest.raises(TransportError):
                await pool.request(address, "POST", "/slow", body=b"{}", timeout=0.2)
            waited = asyncio.get_running_loop().time() - began
            assert (pool.dials, pool.reuses) == (1, 1)  # it *was* a reused socket
            assert waited < 0.38, waited  # one deadline, not two
            await asyncio.wait_for(done.wait(), 2.0)
            await asyncio.sleep(0.3)  # room for a second copy to show up
            assert calls == ["/slow"]
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 abc\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\nok",
        b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
    ],
)
def test_a_reply_outside_the_envelope_is_a_transport_error(reply):
    """Peer input is validated: a made-up status or length fails the
    exchange like any I/O error — the socket closed, never parked — and
    an absurd ``Content-Length`` is refused before it is read."""

    async def main():
        hung_up = asyncio.Event()

        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            if await reader.read() == b"":  # the client closed its end
                hung_up.set()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        address = ("127.0.0.1", server.sockets[0].getsockname()[1])
        pool = HttpPool()
        try:
            with pytest.raises(TransportError):
                await pool.request(address, "GET", "/ping", timeout=2.0)
            await asyncio.wait_for(hung_up.wait(), 2.0)
            assert pool.dials == 1
            # Nothing was parked: the next request dials afresh.
            with pytest.raises(TransportError):
                await pool.request(address, "GET", "/ping", timeout=2.0)
            assert (pool.dials, pool.reuses) == (2, 0)
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def slow_router(seconds: float) -> Router:
    router = echo_router()

    async def slow(request, params):
        await asyncio.sleep(seconds)
        return json_response({"slept": seconds})

    router.add("GET", "/slow", slow)
    return router


def test_a_shorter_timeout_on_a_parked_connection_fires_at_its_own_deadline():
    """The connection's timer was armed for a 5 s exchange; a 0.2 s one
    after it must not wait for that timer."""

    async def main():
        server = HttpServer(slow_router(0.6), port=0)
        address = ("127.0.0.1", await server.start())
        pool = HttpPool()
        try:
            assert (await pool.request(address, "GET", "/ping", timeout=5.0))[0] == 200
            began = asyncio.get_running_loop().time()
            with pytest.raises(TransportError):
                await pool.request(address, "GET", "/slow", timeout=0.2)
            waited = asyncio.get_running_loop().time() - began
            assert pool.reuses == 1
            assert 0.2 <= waited < 0.38, waited
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


def test_a_longer_timeout_on_a_parked_connection_outlives_the_old_deadline():
    """The connection's timer was armed for a 0.2 s exchange; when it
    fires, a 1 s exchange in hand is re-armed, not cut."""

    async def main():
        server = HttpServer(slow_router(0.4), port=0)
        address = ("127.0.0.1", await server.start())
        pool = HttpPool()
        try:
            assert (await pool.request(address, "GET", "/ping", timeout=0.2))[0] == 200
            status, _h, _b = await pool.request(address, "GET", "/slow", timeout=1.0)
            assert status == 200
            assert pool.reuses == 1
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


def test_a_pooled_connection_arms_one_timer_not_one_per_exchange():
    """200 sequential exchanges schedule the dial's timer and one
    deadline timer, and closing the pool cancels what it armed."""

    async def main():
        server = HttpServer(echo_router(), port=0)
        address = ("127.0.0.1", await server.start())
        pool = HttpPool()
        loop = asyncio.get_running_loop()
        scheduled = []
        call_at = loop.call_at

        def counting_call_at(when, callback, *args, **kwargs):
            scheduled.append(call_at(when, callback, *args, **kwargs))
            return scheduled[-1]

        loop.call_at = counting_call_at
        loop.call_later = lambda delay, callback, *args, **kwargs: counting_call_at(
            loop.time() + delay, callback, *args, **kwargs
        )
        try:
            for _ in range(200):
                assert (await pool.request(address, "GET", "/ping"))[0] == 200
            assert (pool.dials, pool.reuses) == (1, 199)
            assert len(scheduled) <= 2, len(scheduled)
            await pool.close()
            await asyncio.sleep(0)  # connection_lost runs
            assert all(handle.cancelled() for handle in scheduled)
        finally:
            del loop.call_at, loop.call_later
            await pool.close()
            await server.stop()

    asyncio.run(main())
