"""Offload (Figure 5) on the live tier.

The recipient search is :func:`repro.core.offload.find_recipient`; a live
host only answers its board read and its load probes.  These tests pin
that the live tier applies the same skip rule as the simulator (a
candidate reporting itself at or above its low watermark costs no probe)
and that a malformed answer from a peer about recipients is decoded as
"no board" or "unreachable candidate" instead of ending the host's
placement rounds.  The CreateObj offer an offload (or any move) makes
is held to the same rule: only a well-formed answer that says JSON
``true`` accepts.
"""

import asyncio

import pytest

from repro.core.config import ProtocolConfig
from repro.core.offload import run_offload
from repro.core.runtime import CreateObj
from repro.live import LiveConfig, LocalDeployment, ManualClock
from repro.types import PlacementAction, PlacementReason

#: Nothing is ever cold (u = 0) and nothing is requested, so a round of
#: an offloading host has no geo move and reaches Offload.
CONFIG = LiveConfig(
    num_hosts=3,
    topology="line",
    num_objects=6,
    object_size=512,
    base_port=0,
    protocol=ProtocolConfig(
        high_watermark=20.0,
        low_watermark=10.0,
        deletion_threshold=0.0,
        replication_threshold=0.18,
    ),
)
NOW = 100.0


async def deployed():
    """A started deployment with host 0 saturated and in offloading mode."""
    clock = ManualClock()
    deployment = LocalDeployment(CONFIG, clock=clock)
    await deployment.start(timers=False)
    clock.set(NOW)
    source = deployment.hosts[0].host
    source.estimator.on_measurement(25.0, 0.0)
    source.meter.object_loads = {obj: 3.0 for obj in source.store.objects()}
    source.update_mode()
    assert source.offloading
    return deployment


def test_live_offload_skips_a_candidate_that_reports_itself_full():
    async def main():
        deployment = await deployed()
        try:
            loaded, idle = deployment.hosts[1], deployment.hosts[2]
            # Host 1 reports idle but is loaded now; host 2 reports itself
            # at its low watermark but is idle now.
            await loaded.control.load_report(1, 2.0)
            await idle.control.load_report(2, 10.0)
            loaded.host.estimator.on_measurement(15.0, 0.0)
            idle.host.estimator.on_measurement(0.0, 0.0)
            system = deployment.hosts[0].system
            moved = await system.drive(
                run_offload(system, system.engine, system.host, NOW, 100.0)
            )
        finally:
            await deployment.stop()
        # Host 1's probe answers above lw, and host 2 is never probed.
        assert moved == 0
        assert [h.system.placement_events for h in deployment.hosts] == [[], [], []]

    asyncio.run(asyncio.wait_for(main(), 20.0))


#: ``(board entries, probe reply)`` a peer may send: each used to raise
#: out of ``placement_round``.
MALFORMED = {
    "entry-not-an-object": ([7], None),
    "node-not-an-integer": ([{"node": "one", "load": 1.0}], None),
    "addr-not-a-pair": ([{"node": 1, "load": 1.0, "addr": ["127.0.0.1"]}], None),
    "probe-load-not-a-number": (
        [{"node": 1, "load": 1.0}],
        {"available": True, "upper_load": "low", "low_watermark": 10.0},
    ),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_a_malformed_recipient_answer_ends_no_placement_round(shape):
    entries, probe = MALFORMED[shape]

    async def main():
        deployment = await deployed()
        control = deployment.hosts[0].control
        call = control._call

        async def peer_answers(address, method, path, *args, **kwargs):
            # What the front door and the probed host send back.
            if path.startswith("/control/offload_candidates"):
                return {"candidates": entries}
            if path == "/control/load":
                return probe
            return await call(address, method, path, *args, **kwargs)

        control._call = peer_answers
        try:
            moved = await deployment.hosts[0].system.placement_round()
        finally:
            await deployment.stop()
        assert moved is False
        assert [h.system.placement_events for h in deployment.hosts] == [[], [], []]

    asyncio.run(asyncio.wait_for(main(), 20.0))


#: CreateObj answers a candidate may send: the first used to read as an
#: accept (a migrating source then sheds its copy), the second to raise
#: out of ``drive`` once a tracer is attached.
MALFORMED_OFFER_ANSWERS = {
    "accepted-not-true": {"accepted": "no", "reason": "accepted", "upper_load": 1.0,
                          "low_watermark": 10.0, "high_watermark": 20.0},
    "load-not-a-number": {"accepted": True, "reason": "accepted", "upper_load": "x",
                          "low_watermark": 10.0, "high_watermark": 20.0},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_OFFER_ANSWERS))
def test_a_malformed_offer_answer_reads_as_a_refusal(shape):
    records = []

    class Tracer:
        def record(self, record):
            records.append(record)

    def offer():
        return (yield CreateObj(0, 1, PlacementAction.MIGRATE, 0, 1.0, PlacementReason.LOAD))

    async def main():
        deployment = await deployed()
        control = deployment.hosts[0].control
        call = control._call

        async def candidate_answers(address, method, path, *args, **kwargs):
            if path == "/control/create_obj":
                return MALFORMED_OFFER_ANSWERS[shape]
            return await call(address, method, path, *args, **kwargs)

        control._call = candidate_answers
        system = deployment.hosts[0].system
        system.tracer = Tracer()
        try:
            return await system.drive(offer())
        finally:
            await deployment.stop()

    assert asyncio.run(asyncio.wait_for(main(), 20.0)) is False
    (record,) = records
    assert record.accepted is False
