"""Sim-vs-live parity: identical decisions from both runtimes.

The live runtime claims to be the simulator's protocol over real
sockets.  This test makes the claim falsifiable: both runtimes play the
same recorded request sequence against the same 3-host world on the same
tick schedule — the simulator through its event queue, the live
deployment over loopback HTTP with a :class:`ManualClock` — and must end
with the identical replica placement, affinities, and placement-event
history (same times, same actions, same sources and targets).

Timing discipline: request instants keep a >=0.15 s margin from every
measurement boundary, so the simulator's sub-100 ms network/service
delays (which the live replay does not model) can never push a
``record_service`` into a different measurement interval.  Measurement
and placement tick times are accumulated with the same float arithmetic
as :class:`~repro.sim.process.PeriodicProcess`, so event timestamps are
bit-identical across runtimes.
"""

import asyncio
import json
from urllib.parse import urlsplit

from repro.core.config import ProtocolConfig
from repro.core.protocol import HostingSystem
from repro.live import LiveConfig, LocalDeployment, ManualClock
from repro.live.loadgen import _http_get
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator

NUM_HOSTS = 3
NUM_OBJECTS = 6
OBJECT_SIZE = 8192
HORIZON = 118.0

#: Offload never triggers (watermarks far above any load); the parity
#: scenario exercises ChooseReplica, geo-replication/migration, and
#: deletion-threshold drops.
PROTOCOL = ProtocolConfig(
    high_watermark=1000.0,
    low_watermark=900.0,
    deletion_threshold=0.1,
    replication_threshold=0.6,
    measurement_interval=10.0,
    placement_interval=26.0,
)

LIVE_CONFIG = LiveConfig(
    num_hosts=NUM_HOSTS,
    topology="line",
    num_objects=NUM_OBJECTS,
    object_size=OBJECT_SIZE,
    base_port=0,
    protocol=PROTOCOL,
)


def request_schedule() -> list[tuple[float, int, int]]:
    """(time, gateway, obj): a hot spot that later moves home.

    Three acts for object 0: hammered from gateway 2, its replica
    geo-migrates there (t=34.667); the demand then moves to gateway 0 —
    strongly enough to geo-replicate a copy home (t=78) but below the
    migration ratio in host 2's observation window; finally everything
    goes quiet, the far replica's window empties, and its unit rate
    falls below u -> a redirector-arbitrated drop (t=104).
    """
    events = []
    # Act 1 (t < 60): object 0 at ~2/s from gateway 2 (far end of the
    # line).  Background traffic keeps other objects warm.
    for second in range(0, 60):
        t = float(second)
        events.append((t + 0.2, 2, 0))
        events.append((t + 0.45, 2, 0))
        if second % 2 == 0:
            events.append((t + 0.7, 1, 1))
        if second % 5 == 0 and second < 58:
            events.append((t + 0.85, second % 3, (second // 5) % NUM_OBJECTS))
    # Act 2 (60 <= t < 86): the hot spot reappears from gateway 0 at
    # 1/s.  Host 2's window ending at t=78 sees gateway 0 on 18/34 of
    # object 0's preference paths: above repl_ratio (1/6), below
    # migr_ratio (0.6) -> geo-replication, not migration.
    for second in range(60, 86):
        t = float(second)
        events.append((t + 0.3, 0, 0))
        if second % 3 == 0:
            events.append((t + 0.6, 1, 1))
    # Act 3 (t >= 86): silence.  ChooseReplica sent every act-2 request
    # to the new closest copy on host 0, so host 2's window ending at
    # t=104 is empty and the stale replica is dropped.
    return sorted(events)


def tick_schedule() -> list[tuple[float, int, int]]:
    """(time, kind, node) with kind 0=measure, 1=placement.

    Accumulates times with the same float additions PeriodicProcess
    performs, so timestamps match the simulator's bit-for-bit.
    """
    ticks = []
    for node in range(NUM_HOSTS):
        t = 0.0
        while True:
            t = t + PROTOCOL.measurement_interval
            if t > HORIZON - 3.0:
                break
            ticks.append((t, 0, node))
        offset = (node + 1) / NUM_HOSTS * PROTOCOL.placement_interval
        t = offset + PROTOCOL.placement_interval
        while t <= HORIZON - 3.0:
            ticks.append((t, 1, node))
            t = t + PROTOCOL.placement_interval
    return ticks


def event_key(event) -> tuple:
    return (
        round(event.time, 9),
        event.action.value,
        event.reason.value,
        event.obj,
        event.source,
        -1 if event.target is None else event.target,
        event.copied_bytes,
    )


def run_sim() -> tuple[dict, list]:
    sim = Simulator()
    topology = LIVE_CONFIG.build_topology()
    network = Network(sim, RoutingDatabase(topology))
    system = HostingSystem(
        sim,
        network,
        PROTOCOL,
        num_objects=NUM_OBJECTS,
        object_size=OBJECT_SIZE,
        capacity=200.0,
    )
    system.initialize_round_robin()
    system.start()
    for t, gateway, obj in request_schedule():
        sim.schedule_at(t, system.submit_request, gateway, obj)
    sim.run(until=HORIZON)
    placement = {
        obj: {
            host: system.redirectors.for_object(obj).affinity(obj, host)
            for host in system.replica_hosts(obj)
        }
        for obj in range(NUM_OBJECTS)
    }
    return placement, sorted(event_key(e) for e in system.placement_events)


def run_live() -> tuple[dict, list]:
    async def main():
        clock = ManualClock()
        deployment = LocalDeployment(LIVE_CONFIG, clock=clock)
        await deployment.start(timers=False)
        try:
            rhost, rport = deployment.directory.redirector()
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
                    status, _h, body = await _http_get(
                        rhost, rport, f"/route?obj={obj}&gateway={gateway}", 5.0
                    )
                    assert status == 200, body
                    split = urlsplit(json.loads(body)["url"])
                    status, _h, _b = await _http_get(
                        split.hostname,
                        split.port,
                        f"{split.path}?{split.query}",
                        5.0,
                    )
                    assert status == 200
            clock.set(HORIZON)
            placement = deployment.replica_placement()
            events = sorted(
                event_key(event)
                for host in deployment.hosts
                for event in host.system.placement_events
            )
            return placement, events
        finally:
            await deployment.stop()

    return asyncio.run(main())


def test_live_deployment_reaches_sim_placement():
    sim_placement, sim_events = run_sim()
    live_placement, live_events = run_live()
    # The scenario must exercise real dynamics, or parity is vacuous.
    actions = [key[1] for key in sim_events]
    assert any(a in ("replicate", "migrate") for a in actions)
    assert "drop" in actions
    assert live_placement == sim_placement
    assert live_events == sim_events
