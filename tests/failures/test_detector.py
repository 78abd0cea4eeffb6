"""Tests for heartbeat-based failure detection."""

import random

import pytest

from repro.core.protocol import MAX_REQUEST_RETRIES
from repro.failures.injector import FailureInjector
from repro.network.faults import FaultConfig, FaultPlane
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system, served_log

FAULTS = FaultConfig(
    enabled=True,
    heartbeat_interval=5.0,
    heartbeat_miss_threshold=3,
    request_failure_threshold=3,
    repair=False,  # detection behaviour in isolation
)


def build(config=FAULTS):
    sim = Simulator()
    plane = FaultPlane(config, random.Random(42))
    system = make_system(
        sim, line_topology(4), num_objects=8, fault_plane=plane
    )
    system.initialize_round_robin()
    return sim, system


def test_crash_detected_by_missed_heartbeats():
    sim, system = build()
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=1000.0)
    detector = system.failure_detector
    # Redirectors are NOT told synchronously: stale view until detection.
    sim.run(until=8.0)
    assert not system.hosts[2].available
    assert not detector.marked_down(2)
    assert all(s.host_available(2) for s in system.redirectors.services)
    # Detection: > 3 missed intervals after the last heartbeat at t=5.
    sim.run(until=25.0)
    assert detector.marked_down(2)
    assert detector.detections == 1
    assert all(not s.host_available(2) for s in system.redirectors.services)
    system.stop()


def test_recovery_detected_by_next_heartbeat():
    sim, system = build()
    system.start()
    injector = FailureInjector(sim, system)
    injector.schedule_outage(2, at=7.0, duration=40.0)
    detector = system.failure_detector
    sim.run(until=40.0)
    assert detector.marked_down(2)
    # Recovery at t=47; the next heartbeat round marks the host back up.
    sim.run(until=55.0)
    assert not detector.marked_down(2)
    assert detector.recoveries == 1
    assert all(s.host_available(2) for s in system.redirectors.services)
    system.stop()


def test_request_failure_fast_path():
    sim, system = build()
    system.start()
    detector = system.failure_detector
    # Three consecutive request failures against host 1 mark it down well
    # before any heartbeat deadline.
    for _ in range(3):
        detector.note_request_failure(1, sim.now)
    assert detector.marked_down(1)
    assert detector.detections == 1
    system.stop()


def test_request_success_resets_failure_streak():
    sim, system = build()
    system.start()
    detector = system.failure_detector
    detector.note_request_failure(1, 0.0)
    detector.note_request_failure(1, 0.0)
    detector.note_request_success(1)
    detector.note_request_failure(1, 0.0)
    detector.note_request_failure(1, 0.0)
    assert not detector.marked_down(1)
    detector.note_request_failure(1, 0.0)
    assert detector.marked_down(1)
    system.stop()


def test_false_positive_self_heals():
    sim, system = build()
    system.start()
    detector = system.failure_detector
    # Mark a perfectly healthy host down via the fast path (e.g. unlucky
    # request losses): its next heartbeat revives it.
    for _ in range(3):
        detector.note_request_failure(3, sim.now)
    assert detector.marked_down(3)
    sim.run(until=6.0)
    assert not detector.marked_down(3)
    assert detector.recoveries == 1
    system.stop()


def test_stale_view_requests_reroute_to_alternate_replica():
    sim, system = build()
    # Object 0 on hosts 0 and 2.
    system.hosts[2].store.add(0)
    system.redirectors.for_object(0).replica_created(0, 2, 1)
    system.start()
    injector = FailureInjector(sim, system)
    sim.run(until=6.0)
    injector.fail(0)
    # The redirector still considers host 0 available and it is the
    # closest replica for gateway 0: requests routed there find it dead,
    # reroute, and succeed against host 2.
    records = served_log(system)
    for _ in range(4):
        system.submit_request(0, 0)
    sim.run(until=10.0)
    # Every request ends up serviced by host 2; the ones that first hit
    # the dead host were rerouted, once each (a few may be load-balanced
    # straight to host 2 by the redirector's proximity/load rule).
    assert [r.server for r in records] == [2, 2, 2, 2]
    assert system.failed_requests == system.lost_requests == 0
    assert 1 <= system.rerouted_requests <= 4
    system.stop()


def test_request_retries_are_capped_under_a_stale_view():
    """Every replica dead and none detected yet: the request bounces
    between them (each retry excludes only the host it just found dead)
    until the cap fails it."""
    sim, system = build(FAULTS.replace(request_failure_threshold=100))
    system.hosts[2].store.add(0)
    system.redirectors.for_object(0).replica_created(0, 2, 1)
    system.start()
    injector = FailureInjector(sim, system)
    sim.run(until=6.0)
    injector.fail(0)
    injector.fail(2)
    records = served_log(system)
    system.submit_request(0, 0)
    sim.run(until=10.0)
    assert records == []
    assert system.failed_requests == 1
    assert system.rerouted_requests == MAX_REQUEST_RETRIES + 1
    system.stop()


def test_detection_disabled_leaves_detector_unbuilt():
    sim, system = build(FAULTS.replace(detection=False))
    assert system.failure_detector is None


@pytest.mark.parametrize("threshold", [1, 5])
def test_fast_path_threshold_respected(threshold):
    sim, system = build(FAULTS.replace(request_failure_threshold=threshold))
    system.start()
    detector = system.failure_detector
    for _ in range(threshold - 1):
        detector.note_request_failure(1, 0.0)
    assert not detector.marked_down(1)
    detector.note_request_failure(1, 0.0)
    assert detector.marked_down(1)
    system.stop()
