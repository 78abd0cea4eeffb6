"""The live tier gives up as DESIGN §8's retry table says, and lists again a
copy its owner does not list.

A stub owner stands in at the front door where the owner has to
misbehave: one applies every ``replica_created`` it reads and hangs up
before answering (the registration landed, the replies were lost), one
answers 502 to everything.  Either way the candidate keeps the copy it
made and answers ``register-failed``: undoing it would leave the owner
listing a copy that no longer exists.
"""

import asyncio
import json

import pytest

from repro.core.config import ProtocolConfig
from repro.core.placement import AffinityOutcome
from repro.core.runtime import BOUNDED_ATTEMPTS, CreateObj
from repro.live import LiveConfig, LocalDeployment, ManualClock
from repro.live.client import ControlPlane
from repro.live.config import PeerDirectory
from repro.types import PlacementAction, PlacementReason

#: Object ``i`` on host ``i mod 3``; nothing is requested, so every copy
#: is cold.
CONFIG = LiveConfig(
    num_hosts=3,
    topology="line",
    num_objects=6,
    object_size=512,
    base_port=0,
    protocol=ProtocolConfig(
        high_watermark=20.0,
        low_watermark=10.0,
        deletion_threshold=0.02,
        replication_threshold=0.18,
    ),
)
BAD_GATEWAY = b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 2\r\n\r\n{}"


class StubOwner:
    """A front door that hangs up on each request after reading it
    (``hangup``) or answers it 502 (``status``)."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.bodies: list[dict] = []
        self.server = None

    async def start(self) -> tuple[str, int]:
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return "127.0.0.1", self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                self.bodies.append(json.loads(await reader.readexactly(length)))
                if self.mode == "hangup":
                    break
                writer.write(BAD_GATEWAY)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        self.server.close()


def against_stub(mode: str, scenario):
    """Run ``scenario(deployment, candidate)`` with host 1's control plane
    pointed at a stub owner; return its result and the stub."""

    async def main():
        deployment = LocalDeployment(CONFIG, clock=ManualClock())
        await deployment.start(timers=False)
        stub = StubOwner(mode)
        directory = PeerDirectory()
        directory.set_redirector(await stub.start())
        candidate = deployment.hosts[1].system
        candidate.control = ControlPlane(directory, timeout=1.0)
        try:
            return await scenario(deployment, candidate), stub
        finally:
            await candidate.control.close()
            await deployment.stop()
            await stub.stop()

    return asyncio.run(asyncio.wait_for(main(), 20.0))


@pytest.mark.parametrize("mode", ["hangup", "status"])
def test_a_registration_that_gives_up_keeps_the_copy(mode):
    async def offer(deployment, candidate):
        source = deployment.hosts[0]
        replicate = CreateObj(0, 1, PlacementAction.REPLICATE, 0, 1.0, PlacementReason.GEO)
        answer = await candidate.handle_create_obj(replicate, source.server.address)
        store = candidate.host.store
        return answer, {obj: store.affinity(obj) for obj in store.objects()}

    (answer, store), stub = against_stub(mode, offer)
    assert answer["accepted"] is False and answer["reason"] == "register-failed"
    assert store == {0: 1, 1: 1, 4: 1}  # the copy stays
    assert len(stub.bodies) == BOUNDED_ATTEMPTS
    # Whatever the owner applied lists a copy the candidate holds.
    assert {(body["obj"], body["host"]) for body in stub.bodies} == {(0, 1)}
    assert len({body["msg_id"] for body in stub.bodies}) == 1  # one mutation, re-sent


def test_a_drop_request_that_gives_up_keeps_the_replica():
    async def drop(deployment, candidate):
        return await candidate.drive(candidate.engine.reduce_affinity(1, 1))

    outcome, stub = against_stub("status", drop)
    assert outcome is AffinityOutcome.REFUSED
    assert [body["objs"] for body in stub.bodies] == [[1]] * BOUNDED_ATTEMPTS


def test_an_unlisted_copy_is_listed_again_and_dropped_within_two_rounds():
    """Round one: the owner answers host 1's drop request 409, since it
    does not list host 1's copy of object 0, and host 1 registers every
    object of the run again.  Round two: the copy is judged like any
    other and, with host 0's copy surviving, dropped."""

    async def main():
        clock = ManualClock()
        deployment = LocalDeployment(CONFIG, clock=clock)
        await deployment.start(timers=False)
        owner = deployment.redirector.service
        node = deployment.hosts[1]
        node.host.store.add(0)  # a copy whose registration gave up
        try:
            clock.set(100.0)
            await node.system.placement_round()
            listed = owner.replica_hosts(0)
            clock.set(200.0)
            await node.system.placement_round()
            return listed, owner.replica_hosts(0), 0 in node.host.store, owner.replica_hosts(1)
        finally:
            await deployment.stop()

    listed, after, held, sole = asyncio.run(asyncio.wait_for(main(), 20.0))
    assert listed == [0, 1]
    assert after == [0] and not held
    assert sole == [1]  # the sole copy is never dropped
