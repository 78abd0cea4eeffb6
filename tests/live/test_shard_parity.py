"""One shard or two: the same placement, and no registry relay.

The sharded tier splits the registry by the hash ring (DESIGN §10), and
hosts send each registry mutation straight to the shard owning its
object.  Splitting must not change a single decision: these tests replay
the parity scenario's request sequence (``tests/live/test_parity.py``,
same ``ManualClock`` and host-by-host tick discipline) against a 1-shard
and a 2-shard deployment and compare placement events and the merged
registry.  A control plane whose address book lacks the owner still
lands its mutation exactly once.
"""

import asyncio
import json
from urllib.parse import urlsplit

import pytest

from repro.live import LocalDeployment, ManualClock
from repro.live.client import ControlPlane
from repro.live.config import PeerDirectory
from repro.live.pool import HttpPool, TransportError

from tests.live.test_parity import (
    HORIZON,
    LIVE_CONFIG,
    event_key,
    request_schedule,
    tick_schedule,
)


def replay(num_shards: int):
    """The parity scenario against ``num_shards`` shards: placement
    events, merged registry, and each shard's snapshot."""

    async def main():
        clock = ManualClock()
        config = LIVE_CONFIG.replace(num_shards=num_shards)
        deployment = LocalDeployment(config, clock=clock)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            front = deployment.directory.redirector()
            timeline = sorted(
                [(t, 2, 0, (gateway, obj)) for t, gateway, obj in request_schedule()]
                + [(t, kind, node, None) for t, kind, node in tick_schedule()],
                key=lambda item: (item[0], item[1], item[2]),
            )
            for time_, kind, node, payload in timeline:
                clock.set(time_)
                if kind == 0:
                    await deployment.hosts[node].system.measurement_round()
                elif kind == 1:
                    await deployment.hosts[node].system.placement_round()
                else:
                    gateway, obj = payload
                    status, _h, body = await pool.request(
                        front, "GET", f"/route?obj={obj}&gateway={gateway}"
                    )
                    assert status == 200, body
                    url = urlsplit(json.loads(body)["url"])
                    status, _h, _b = await pool.request(
                        (url.hostname, url.port), "GET", f"{url.path}?{url.query}"
                    )
                    assert status == 200
            clock.set(HORIZON)
            events = sorted(
                event_key(event)
                for host in deployment.hosts
                for event in host.system.placement_events
            )
            return events, deployment.replica_placement(), deployment.snapshot()["shards"]
        finally:
            await pool.close()
            await deployment.stop()

    return asyncio.run(main())


def test_two_shards_place_exactly_as_one_with_no_mutation_relayed():
    events1, registry1, _ = replay(1)
    events2, registry2, shards = replay(2)
    assert any(key[1] in ("replicate", "migrate") for key in events1)
    assert any(key[1] == "drop" for key in events1)
    assert events2 == events1
    assert registry2 == registry1
    # Object 0, the scenario's hot spot, belongs to shard 1 on a 2-shard
    # ring: its registrations and drop went there, none through shard 0.
    assert LIVE_CONFIG.replace(num_shards=2).ring().owners(1) == (1,)
    assert [shard["forwarded_control_total"] for shard in shards] == [0, 0]
    assert shards[1]["mutations_total"] >= 2


@pytest.mark.parametrize("path", ["refresh", "relay"])
def test_a_mutation_for_an_unknown_shard_is_applied_once(path, monkeypatch):
    """A control plane whose book holds only the front door refreshes it
    and then talks to the owner; if the refresh fails too, the front
    door relays.  Either way the owner applies the mutation once."""
    config = LIVE_CONFIG.replace(num_shards=2)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        front, owner = deployment.shards
        directory = PeerDirectory()
        directory.set_redirector(deployment.directory.redirector())
        owners = deployment.ring.owners(config.num_objects)
        control = ControlPlane(directory, owners=owners)
        if path == "relay":

            async def unreachable():
                raise TransportError("front door address book unavailable")

            monkeypatch.setattr(control, "refresh_peers", unreachable)
        try:
            obj = owners.index(1)
            new_host = (obj + 1) % config.num_hosts
            await control.replica_created(new_host, obj, 1)
            assert owner.service.affinity(obj, new_host) == 1
            assert owner.mutations_total == 1
            assert owner.deduplicated_total == 0
            relayed = 1 if path == "relay" else 0
            assert front.forwarded_control_total == relayed
            assert directory.knows_shard(1) is (path == "refresh")
        finally:
            await control.close()
            await deployment.stop()

    asyncio.run(asyncio.wait_for(main(), 20.0))
