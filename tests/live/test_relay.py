"""The front door's relay, answered without a Task (DESIGN §8 "Answering").

A conversation the front door (shard 0) does not own is sent to the
owning shard on a parked pooled connection, and the answer is written
from the callback that frames the owner's reply.  Only a dial — nothing
parked, or a parked socket found stale — runs in a Task.  These tests
pin that mechanism, the failure modes of both paths, and the server
side of a deferred answer, over real loopback sockets.  Where an owner
has to misbehave, a fake one (a bare ``asyncio`` server) stands in at
shard 1's address.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.live import LiveConfig, LocalDeployment
from repro.live.clock import ManualClock
from repro.live.config import PeerDirectory, live_protocol_config
from repro.live.httpd import BadRequest, HttpServer, Router, json_response
from repro.live.pool import HttpPool
from repro.live.redirector import LiveRedirector
from repro.routing.routes_db import RoutingDatabase

TIMEOUT = 0.3  # the front door's relay timeout in these tests


def sharded_config(**changes) -> LiveConfig:
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0
    )
    return LiveConfig(base_port=0, num_shards=2, protocol=protocol, **changes)


def owned_by(deployment: LocalDeployment, shard: int) -> list[int]:
    owners = deployment.ring.owners(deployment.config.num_objects)
    return [obj for obj, owner in enumerate(owners) if owner == shard]


def ok_reply(body: bytes = b'{"ok": true}', status: str = "200 OK", extra: bytes = b"") -> bytes:
    return (
        b"HTTP/1.1 " + status.encode() + b"\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n" + extra
        + b"Connection: keep-alive\r\n\r\n" + body
    )


class FakeOwner:
    """A shard-1 stand-in that answers each connection's requests from a
    script: bytes to send, ``None`` to hang up unanswered, ``"hang"`` to
    never answer, or an ``asyncio.Event`` to wait on before a 200."""

    def __init__(self, script) -> None:
        self.script = list(script)
        self.heads: list[bytes] = []
        self.dials = 0
        self.server = None

    async def start(self) -> tuple[str, int]:
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return "127.0.0.1", self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        self.dials += 1
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                self.heads.append(head.split(b"\r\n", 1)[0])
                step = self.script.pop(0) if self.script else ok_reply()
                if step is None:
                    break
                if step == "hang":
                    await asyncio.sleep(3600)
                if isinstance(step, asyncio.Event):
                    await step.wait()
                    step = ok_reply()
                writer.write(step)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        self.server.close()


def run_against(script, scenario, timeout: float = TIMEOUT):
    """Run ``scenario`` on a 2-shard deployment whose shard 1 address is a
    fake owner playing ``script`` (a list, or a function making one on
    the test's loop)."""

    async def main():
        deployment = LocalDeployment(sharded_config())
        await deployment.start(timers=False)
        fake = FakeOwner(script() if callable(script) else script)
        deployment.directory.set_shard(1, await fake.start())
        front = deployment.shards[0]
        front.pool.timeout = timeout
        pool = HttpPool()
        try:
            await asyncio.wait_for(scenario(deployment, front, fake, pool), 20.0)
        finally:
            await pool.close()
            await deployment.stop()
            await fake.stop()

    asyncio.run(main())


def route(obj: int) -> str:
    return f"/route?obj={obj}&gateway=0"


# -- failure modes of the relay ---------------------------------------------


def test_an_unreachable_owner_is_a_502_naming_the_shard():
    async def main():
        deployment = LocalDeployment(sharded_config())
        await deployment.start(timers=False)
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            closed = probe.getsockname()
        deployment.directory.set_shard(1, closed)
        pool = HttpPool()
        try:
            obj = owned_by(deployment, 1)[0]
            status, _h, body = await pool.request(
                deployment.shards[0].server.address, "GET", route(obj)
            )
            assert status == 502
            assert json.loads(body)["error"].startswith("shard 1 unreachable")
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


@pytest.mark.parametrize("parked", [False, True], ids=["dialled", "parked"])
def test_an_owner_that_never_answers_is_a_502_at_the_timeout(parked):
    async def scenario(deployment, front, fake, pool):
        obj = owned_by(deployment, 1)[0]
        address = front.server.address
        if parked:  # one answered relay leaves a connection parked
            assert (await pool.request(address, "GET", route(obj)))[0] == 200
            assert len(front.pool._idle[deployment.directory.shard(1)]) == 1
        started = time.monotonic()
        status, _h, body = await pool.request(address, "GET", route(obj))
        elapsed = time.monotonic() - started
        assert status == 502 and "shard 1" in json.loads(body)["error"]
        assert TIMEOUT <= elapsed < TIMEOUT + 0.2

    run_against([ok_reply(), "hang"] if parked else ["hang"], scenario)


def test_a_stale_parked_relay_socket_is_resent_once_on_a_fresh_dial():
    async def scenario(deployment, front, fake, pool):
        obj = owned_by(deployment, 1)[0]
        address = front.server.address
        assert (await pool.request(address, "GET", route(obj)))[0] == 200
        dials = front.pool.dials
        # The owner hangs up on the parked socket's next request without
        # a reply byte: the front door sends it once more, on a new socket.
        status, _h, body = await pool.request(address, "GET", route(obj))
        assert (status, json.loads(body)) == (200, {"ok": True})
        assert front.pool.dials == dials + 1
        assert fake.dials == 2
        assert fake.heads == [f"GET {route(obj)} HTTP/1.1".encode()] * 3

    run_against([ok_reply(), None], scenario)


def test_a_relayed_mutation_releases_the_gate_on_every_outcome():
    async def scenario(deployment, front, fake, pool):
        obj = owned_by(deployment, 1)[0]
        address = front.server.address
        answers = []
        for index in range(4):
            status, headers, _b = await pool.request(
                address, "POST", "/control/replica_created",
                payload={"obj": obj, "host": 1, "affinity": 1, "msg_id": f"gate-{index}"},
            )
            answers.append(status)
            assert front.control_gate.inflight == 0
            if status == 429:
                assert headers["retry-after"] == "0.250"
        assert answers == [200, 200, 429, 502]
        assert front.forwarded_control_total == 4

    throttled = ok_reply(b'{"error": "throttled"}', "429 Too Many Requests",
                         b"Retry-After: 0.250\r\n")
    # The first answer comes over a dial (a Task), the rest over the
    # parked socket; the last reply is outside the HTTP envelope.
    run_against([ok_reply(), ok_reply(), throttled, b"garbage\r\n\r\n"], scenario)


@pytest.mark.parametrize("parked", [False, True], ids=["dialled", "parked"])
def test_stop_delivers_a_relayed_answer_in_flight_with_connection_close(parked):
    release = None

    async def scenario(deployment, front, fake, pool):
        obj = owned_by(deployment, 1)[0]
        host, port = front.server.address
        if parked:
            assert (await pool.request((host, port), "GET", route(obj)))[0] == 200
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(f"GET {route(obj)} HTTP/1.1\r\n\r\n".encode())
        while len(fake.heads) < 1 + parked:  # the relay reached the owner
            await asyncio.sleep(0.005)
        stopping = asyncio.create_task(front.server.stop())
        await asyncio.sleep(0.05)
        assert not stopping.done()
        release.set()
        await asyncio.wait_for(stopping, 5.0)
        raw = await reader.read()  # to EOF: the answer, then the close
        assert raw.startswith(b"HTTP/1.1 200 ") and b"Connection: close\r\n" in raw
        assert raw.endswith(b'{"ok": true}')
        writer.close()

    def script():
        nonlocal release
        release = asyncio.Event()
        return [ok_reply(), release] if parked else [release]

    run_against(script, scenario, timeout=5.0)


# -- the server side of a deferred answer -----------------------------------


def test_deferred_answers_raising_responding_later_and_handing_to_a_task():
    """A deferred answer that raises before it responds is answered like a
    raising handler; one may respond from a later callback, or hand over
    an awaitable, which then gets the Task; a second respond is ignored."""

    def raises(request, params):
        def answer(respond):
            raise RuntimeError("boom")
        return answer

    def bad(request, params):
        def answer(respond):
            raise BadRequest("bad deferred input")
        return answer

    def later(request, params):
        def answer(respond):
            loop = asyncio.get_running_loop()
            loop.call_later(0.01, respond, json_response({"later": True}))
            loop.call_later(0.02, respond, json_response({"twice": True}))
        return answer

    def handed(request, params):
        async def waited():
            await asyncio.sleep(0.01)
            return json_response({"handed": True})
        return lambda respond: respond(waited())

    router = Router()
    for path, handler in [("/raises", raises), ("/bad", bad), ("/later", later),
                          ("/handed", handed)]:
        router.add("GET", path, handler)

    async def main():
        server = HttpServer(router, port=0)
        port = await server.start()
        pool = HttpPool()
        try:
            address = ("127.0.0.1", port)
            status, _h, body = await pool.request(address, "GET", "/raises")
            assert (status, json.loads(body)) == (500, {"error": "internal error"})
            status, _h, body = await pool.request(address, "GET", "/bad")
            assert (status, json.loads(body)) == (400, {"error": "bad deferred input"})
            for path, expected in [("/later", {"later": True}), ("/handed", {"handed": True})]:
                status, _h, body = await pool.request(address, "GET", path)
                assert (status, json.loads(body)) == (200, expected)
            await asyncio.sleep(0.03)  # the ignored second respond has fired
            # Every exchange rode one keep-alive socket: nothing stray was written.
            assert (await pool.request(address, "GET", "/later"))[0] == 200
            assert pool.dials == 1
        finally:
            await pool.close()
            await server.stop()

    asyncio.run(main())


def test_pipelined_requests_wait_behind_a_deferred_answer():
    gate = []

    def later(request, params):
        return lambda respond: gate.append((respond, request.query["n"]))

    router = Router()
    router.add("GET", "/later", later)

    async def main():
        server = HttpServer(router, port=0)
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(b"GET /later?n=1 HTTP/1.1\r\n\r\nGET /later?n=2 HTTP/1.1\r\n\r\n")
            await asyncio.sleep(0.05)
            assert [n for _r, n in gate] == ["1"]  # the second is not dispatched yet
            gate[0][0](json_response({"n": 1}))
            await asyncio.sleep(0.05)
            assert [n for _r, n in gate] == ["1", "2"]
            gate[1][0](json_response({"n": 2}))
            replies = b""
            while replies.count(b"HTTP/1.1 200") < 2:
                replies += await reader.read(4096)
            assert replies.index(b'{"n": 1}') < replies.index(b'{"n": 2}')
        finally:
            writer.close()
            await server.stop()

    asyncio.run(main())


# -- regression pins for the mechanism --------------------------------------


def test_a_relayed_route_and_a_data_fetch_create_no_task():
    async def main():
        deployment = LocalDeployment(sharded_config())
        await deployment.start(timers=False)
        pool = HttpPool()
        loop = asyncio.get_running_loop()
        created = []
        create_task = loop.create_task

        def counting(coro, **kwargs):
            created.append(getattr(coro, "__qualname__", coro))
            return create_task(coro, **kwargs)

        try:
            front = deployment.shards[0].server.address
            obj = owned_by(deployment, 1)[0]
            assert (await pool.request(front, "GET", route(obj)))[0] == 200  # dials
            host = deployment.hosts[obj % deployment.config.num_hosts]
            assert (await pool.request(host.server.address, "GET", f"/data/{obj}"))[0] == 200
            loop.create_task = counting
            try:
                status, _h, body = await pool.request(front, "GET", route(obj))
                assert status == 200 and json.loads(body)["server"] == host.node
                assert (await pool.request(host.server.address, "GET", f"/data/{obj}"))[0] == 200
            finally:
                del loop.create_task
            assert created == []
            assert deployment.shards[0].forwarded_total == 2
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_the_relay_forwards_the_request_target_verbatim():
    async def main():
        deployment = LocalDeployment(sharded_config())
        await deployment.start(timers=False)
        seen = {}
        for index, shard in enumerate(deployment.shards):
            def recording(request, dispatch=shard.server._dispatch, index=index):
                seen[index] = request
                return dispatch(request)

            shard.server._dispatch = recording
        pool = HttpPool()
        try:
            obj = owned_by(deployment, 1)[0]
            encoded = "".join(f"%{ord(digit):02X}" for digit in str(obj))
            target = f"/route?obj={encoded}&gateway=5&gateway=1&x=a+b%2Fc"
            status, _h, body = await pool.request(
                deployment.shards[0].server.address, "GET", target
            )
            assert status == 200 and json.loads(body)["url"].endswith("gateway=1")
            assert seen[0].target == seen[1].target == target
            assert seen[0].query == seen[1].query == {
                "obj": str(obj), "gateway": "1", "x": "a b/c"
            }
            assert deployment.shards[1].routed_total == 1
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


# -- a route whose chosen host has no known address -------------------------


def test_a_route_to_an_unregistered_host_is_a_503_counted_unroutable(caplog):
    config = LiveConfig(base_port=0, protocol=live_protocol_config())

    async def main():
        shard = LiveRedirector(
            config, RoutingDatabase(config.build_topology()), ManualClock(),
            PeerDirectory(), ring=config.ring(),
        )
        await shard.start()
        pool = HttpPool()
        try:
            status, _h, body = await pool.request(
                shard.server.address, "GET", "/route?obj=0&gateway=0"
            )
            assert (status, json.loads(body)) == (
                503, {"error": "host 0 not registered yet"}
            )
            assert (shard.routed_total, shard.unroutable_total) == (0, 1)
        finally:
            await pool.close()
            await shard.stop()

    with caplog.at_level("ERROR"):
        asyncio.run(main())
    assert not [r for r in caplog.records if r.levelname == "ERROR"]
