"""Tests for the replica repair daemon."""

import random

from repro.failures.injector import FailureInjector
from repro.network.faults import FaultConfig, FaultPlane
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction, PlacementReason
from tests.conftest import make_system, served_log

FAULTS = FaultConfig(
    enabled=True,
    heartbeat_interval=5.0,
    heartbeat_miss_threshold=2,
    repair_interval=10.0,
)


def build(config=FAULTS, num_objects=8):
    sim = Simulator()
    plane = FaultPlane(config, random.Random(17))
    system = make_system(
        sim, line_topology(4), num_objects=num_objects, fault_plane=plane
    )
    system.initialize_round_robin()
    return sim, system


def test_sole_replica_crash_triggers_repair():
    sim, system = build()
    system.start()
    injector = FailureInjector(sim, system)
    # Objects 2 and 6 live only on host 2.
    injector.schedule_outage(2, at=7.0, duration=500.0)
    daemon = system.repair_daemon
    sim.run(until=60.0)
    assert daemon.repairs == 2
    assert not daemon.unavailable_since  # all windows closed
    for obj in (2, 6):
        live = system.redirectors.for_object(obj).available_replica_hosts(obj)
        assert live, f"object {obj} still unavailable"
        # The dead host keeps its registered (masked) replica.
        assert 2 in system.redirectors.for_object(obj).replica_hosts(obj)
    # Requests for the stranded objects are serviceable again.
    served = served_log(system)
    system.submit_request(0, 2)
    sim.run(until=65.0)
    assert system.failed_requests == 0
    assert [record.obj for record in served] == [2]
    system.stop()
    system.check_invariants()


def test_unavailability_window_spans_detection_to_repair():
    sim, system = build()
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=500.0)
    daemon = system.repair_daemon
    sim.run(until=60.0)
    # Two objects, each unavailable from detection (heartbeat deadline
    # after t=7) until their repair round.
    assert daemon.unavailability_seconds > 0.0
    assert daemon.unavailability_seconds_total(60.0) == (
        daemon.unavailability_seconds
    )
    repair_events = [
        e
        for e in system.placement_events
        if e.reason is PlacementReason.REPAIR
    ]
    assert len(repair_events) == 2
    assert all(e.action is PlacementAction.REPLICATE for e in repair_events)
    assert all(e.copied_bytes == system.object_size for e in repair_events)
    system.stop()


def test_recovery_before_repair_round_closes_window_without_copy():
    # Repair interval far beyond the outage: the host returns first.
    slow = FAULTS.replace(repair_interval=10_000.0)
    sim, system = build(slow)
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=30.0)
    daemon = system.repair_daemon
    sim.run(until=20.0)
    assert daemon.unavailable_since  # windows open while the host is down
    sim.run(until=60.0)
    assert daemon.repairs == 0
    assert not daemon.unavailable_since
    assert daemon.unavailability_seconds > 0.0
    system.stop()
    system.check_invariants()


def test_open_windows_counted_at_horizon():
    slow = FAULTS.replace(repair_interval=10_000.0)
    sim, system = build(slow)
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=10_000.0)
    sim.run(until=100.0)
    daemon = system.repair_daemon
    assert daemon.unavailable_since
    assert daemon.unavailability_seconds_total(100.0) > 0.0
    system.stop()


def test_multi_replica_objects_never_enter_repair():
    sim, system = build()
    # Give every host-2 object a second live replica.
    for obj in (2, 6):
        system.hosts[3].store.add(obj)
        system.redirectors.for_object(obj).replica_created(obj, 3, 1)
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=500.0)
    sim.run(until=60.0)
    daemon = system.repair_daemon
    assert daemon.repairs == 0
    assert daemon.unavailability_seconds == 0.0
    system.stop()


def test_repair_disabled_leaves_daemon_unbuilt():
    sim, system = build(FAULTS.replace(repair=False))
    assert system.repair_daemon is None
