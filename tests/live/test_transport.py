"""What ``asyncio`` streams gave the HTTP server for free, now its own job.

``live/httpd.py`` sits directly on ``asyncio.Protocol``: ordering of
pipelined requests, reassembly of trickled ones, flow control in both
directions, EOF in the middle of a message and the lifetime of accepted
sockets are the server's code, so each gets a test over a real socket.
The last one talks to the server with a client this repository did not
write (stdlib ``http.client`` — tests only; ``tests/test_http_hygiene.py``
keeps it out of ``src/``).
"""

import asyncio
import http.client
import json
import socket

import pytest

from repro.live.httpd import (
    MAX_READ_AHEAD,
    HttpServer,
    Response,
    Router,
    json_response,
)

MEGABYTE = 1024 * 1024


class Harness:
    """A server whose ``/park`` handler waits until the test says go."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self.go = asyncio.Event()
        router = Router()
        router.add("GET", "/park", self.park)
        router.add("GET", "/now", self.now)
        router.add("POST", "/size", self.size)
        router.add("GET", "/big", self.big)
        self.server = HttpServer(router, port=0)

    async def park(self, request, params):
        self.calls.append("park")
        await self.go.wait()
        return json_response({"parked": True})

    def now(self, request, params):
        self.calls.append("now")
        return json_response({"now": True, "query": request.query})

    def size(self, request, params):
        self.calls.append("size")
        return json_response({"size": len(request.body)})

    def big(self, request, params):
        self.calls.append("big")
        return Response(body=b"B" * (4 * MEGABYTE))

    def connection(self):
        (connection,) = self.server._connections
        return connection


def run(scenario):
    async def main():
        harness = Harness()
        port = await harness.server.start()
        try:
            await asyncio.wait_for(scenario(harness, "127.0.0.1", port), 20.0)
        finally:
            harness.go.set()
            await harness.server.stop()

    asyncio.run(main())


async def turns(count: int = 5) -> None:
    """Let the loop run ``count`` I/O polls: enough for loopback bytes to land."""
    for _ in range(count):
        await asyncio.sleep(0.005)


async def read_reply(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:] if line)
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split()[1]), headers, body


def test_pipelined_requests_are_answered_in_order_one_at_a_time():
    async def scenario(harness, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            b"GET /park HTTP/1.1\r\n\r\nGET /now?n=2 HTTP/1.1\r\n\r\n"
            b"GET /now?n=3 HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        await turns()
        # Both followers are in the server's buffer; neither has been
        # dispatched, because the first answer is not written yet.
        assert harness.calls == ["park"]
        harness.go.set()
        replies = [await read_reply(reader) for _ in range(3)]
        assert [json.loads(body) for _, _, body in replies] == [
            {"parked": True},
            {"now": True, "query": {"n": "2"}},
            {"now": True, "query": {"n": "3"}},
        ]
        assert harness.calls == ["park", "now", "now"]
        assert await reader.read() == b""  # Connection: close was honoured
        writer.close()

    run(scenario)


def test_a_request_trickled_one_byte_per_loop_turn_is_reassembled():
    async def scenario(harness, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        message = b"POST /size HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
        for index in range(len(message)):
            assert harness.calls == []  # nothing is dispatched on a prefix
            writer.write(message[index : index + 1])
            await asyncio.sleep(0)
        status, _, body = await read_reply(reader)
        assert (status, json.loads(body)) == (200, {"size": 5})
        writer.close()

    run(scenario)


def test_reads_pause_behind_a_busy_handler_and_a_large_upload_still_lands():
    async def scenario(harness, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        body = b"u" * (4 * MEGABYTE)
        writer.write(
            b"GET /park HTTP/1.1\r\n\r\n"
            b"POST /size HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await turns(10)
        # The handler in hand is parked, so the upload behind it is left
        # in the kernel: one read past the threshold, then no more.
        held = len(harness.connection().buffer)
        assert MAX_READ_AHEAD < held < MAX_READ_AHEAD + 512 * 1024
        await turns()
        assert len(harness.connection().buffer) == held
        assert harness.calls == ["park"]
        harness.go.set()
        assert (await read_reply(reader))[0] == 200
        status, _, reply = await read_reply(reader)
        assert (status, json.loads(reply)) == (200, {"size": len(body)})
        writer.close()

    run(scenario)


def test_a_stalled_reader_holds_back_the_next_request():
    async def scenario(harness, host, port):
        # A small receive buffer, fixed before the handshake, and a socket
        # nobody reads: the kernel cannot swallow the answer on our behalf.
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8 * 1024)
        sock.setblocking(False)
        loop = asyncio.get_running_loop()
        await loop.sock_connect(sock, (host, port))
        await loop.sock_sendall(sock, b"GET /big HTTP/1.1\r\n\r\nGET /now HTTP/1.1\r\n\r\n")
        await turns(10)
        # Nobody is reading: the 4 MB answer sits in the transport above
        # its high-water mark, and the request behind it is not parsed —
        # its answer would only pile on top.
        connection = harness.connection()
        assert connection.write_paused
        assert connection.transport.get_write_buffer_size() > 0
        assert harness.calls == ["big"]
        reader, writer = await asyncio.open_connection(sock=sock)
        status, _, body = await read_reply(reader)
        assert status == 200 and body == b"B" * (4 * MEGABYTE)
        status, _, body = await read_reply(reader)
        assert (status, json.loads(body)["now"]) == (200, True)
        assert harness.calls == ["big", "now"]
        assert not connection.write_paused
        writer.close()

    run(scenario)


@pytest.mark.parametrize(
    "prefix",
    [
        b"GET /now HTTP/1.1\r\nHost: t",
        b"POST /size HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf",
    ],
    ids=["mid-head", "mid-body"],
)
def test_eof_inside_a_message_is_answered_400_and_never_dispatched(prefix):
    async def scenario(harness, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(prefix)
        writer.write_eof()
        raw = await reader.read()  # to EOF: the server closed its side too
        assert raw.startswith(b"HTTP/1.1 400 ") and b"truncated request" in raw
        assert harness.calls == []
        assert harness.server._connections == set()
        writer.close()

    run(scenario)


def test_stop_owns_its_connections():
    """Idle keep-alive sockets are closed by ``stop()`` itself (on 3.11
    ``Server.close()`` leaves them open), an answer in flight is finished
    first, and no server-side task outlives the call."""

    async def main():
        harness = Harness()
        port = await harness.server.start()
        idle_reader, idle_writer = await asyncio.open_connection("127.0.0.1", port)
        idle_writer.write(b"GET /now HTTP/1.1\r\n\r\n")
        assert (await read_reply(idle_reader))[0] == 200  # now parked, keep-alive
        busy_reader, busy_writer = await asyncio.open_connection("127.0.0.1", port)
        busy_writer.write(b"GET /park HTTP/1.1\r\n\r\n")
        await turns()
        assert harness.calls == ["now", "park"]

        before = asyncio.all_tasks()
        stopping = asyncio.create_task(harness.server.stop())
        await turns(2)
        assert idle_reader.at_eof()  # closed at once, not at loop teardown
        assert not stopping.done() and not busy_reader.at_eof()
        harness.go.set()
        await asyncio.wait_for(stopping, 5.0)
        status, headers, body = await read_reply(busy_reader)
        assert (status, json.loads(body)) == (200, {"parked": True})
        assert headers["connection"] == "close"
        assert await busy_reader.read() == b""
        assert harness.server._connections == set()
        assert asyncio.all_tasks() - before == set()
        with pytest.raises(OSError):
            await asyncio.open_connection("127.0.0.1", port)
        idle_writer.close()
        busy_writer.close()

    asyncio.run(main())


def test_a_client_we_did_not_write_can_talk_to_the_server():
    """stdlib ``http.client``: GET, POST with a body, ``Connection: close``."""

    def converse(port):
        client = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        client.request("GET", "/now?a=1&b=")
        reply = client.getresponse()
        got = (reply.status, reply.getheader("Content-Type"), json.loads(reply.read()))
        client.request("POST", "/size", body=b"x" * 1000)  # same socket: keep-alive
        reply = client.getresponse()
        posted = (reply.status, json.loads(reply.read()), reply.will_close)
        client.request("GET", "/now", headers={"Connection": "close"})
        reply = client.getresponse()
        closed = (reply.status, reply.will_close, len(reply.read()) > 0)
        client.close()
        return got, posted, closed

    async def scenario(harness, host, port):
        got, posted, closed = await asyncio.to_thread(converse, port)
        assert got == (200, "application/json", {"now": True, "query": {"a": "1", "b": ""}})
        assert posted == (200, {"size": 1000}, False)
        assert closed == (200, True, True)
        assert harness.calls == ["now", "size", "now"]

    run(scenario)
