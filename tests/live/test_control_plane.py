"""Tests for the control plane's ride on the keep-alive pool.

A ``ControlPlane`` call blocks a worker thread while the exchange runs
on the event loop that owns the sockets; these tests pin the two ends of
that bridge — the conversations of a placement round reuse a handful of
parked sockets instead of dialling per message, and a call made *on* the
loop thread is refused at once rather than deadlocking.
"""

import asyncio

import pytest

from repro.live import LocalDeployment, ManualClock
from repro.live.client import ControlPlane
from repro.live.pool import HttpPool

#: The parity scenario's world: three hosts on a line, offload out of
#: reach, so a hot spot at the far end geo-migrates an object and
#: nothing else moves.
from tests.live.test_parity import LIVE_CONFIG as CONFIG


def test_placement_round_reuses_pooled_control_sockets():
    async def main():
        clock = ManualClock()
        deployment = LocalDeployment(CONFIG, clock=clock)
        await deployment.start(timers=False)
        client = HttpPool()
        source, target = deployment.hosts[0], deployment.hosts[2]
        try:
            # Object 0 lives on host 0 and is hammered from gateway 2.
            address = deployment.directory.host(0)
            for second in range(34):
                clock.set(second + 0.25)
                for _ in range(2):
                    status, _h, _b = await client.request(
                        address, "GET", "/obj/0?gateway=2"
                    )
                    assert status == 200
                if second % 10 == 9:
                    clock.set(second + 1.0)
                    await asyncio.to_thread(source.system.measurement_tick)
            clock.set(34.667)
            await asyncio.to_thread(source.system.placement_tick)
        finally:
            await client.close()
            await deployment.stop()
        # The round really held its conversations: the offer went out,
        # the candidate pulled the bytes and registered, the source's
        # drop was arbitrated.
        assert [e.action.value for e in target.system.placement_events] == ["migrate"]
        peers = CONFIG.num_hosts  # the front door + the other hosts
        for host in (source, target):
            assert 0 < host.control.pool.dials <= peers
        # Three load reports, the drop arbitration: one socket to the
        # front door, parked between conversations.
        assert source.control.pool.reuses >= 3

    asyncio.run(main())


def test_control_call_on_the_loop_thread_raises_at_once():
    async def main():
        deployment = LocalDeployment(CONFIG)
        await deployment.start(timers=False)
        try:
            control = deployment.hosts[0].control
            # On the loop thread the reply could only be read by the
            # thread that is waiting for it.
            with pytest.raises(RuntimeError, match="off that loop's thread"):
                control.load_report(0, 1.0)
            # ...and a plane nobody bound has no loop to run on.
            with pytest.raises(RuntimeError, match="bound event loop"):
                await asyncio.to_thread(
                    ControlPlane(deployment.directory).load_report, 0, 1.0
                )
            assert control.pool.dials == 0
            # The same call from a worker thread goes through.
            await asyncio.to_thread(control.load_report, 0, 1.0)
            assert control.pool.dials == 1
        finally:
            await deployment.stop()

    asyncio.run(asyncio.wait_for(main(), 20.0))
