"""Tests for host failure injection and the system's failure behaviour."""

import pytest

from repro.core.create_obj import handle_create_obj
from repro.errors import ProtocolError
from repro.failures.injector import FailureInjector
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import line_topology
from repro.types import PlacementAction, PlacementReason
from repro.workloads.base import UniformWorkload, attach_generators
from tests.conftest import make_system, served_log


@pytest.fixture
def setup():
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=8)
    system.initialize_round_robin()
    return sim, system, FailureInjector(sim, system)


def test_failed_host_not_chosen(setup):
    sim, system, injector = setup
    # Object 0 replicated on hosts 0 and 2.
    system.hosts[2].store.add(0)
    system.redirectors.for_object(0).replica_created(0, 2, 1)
    injector.fail(0)
    served = served_log(system)
    for gateway in range(4):
        system.submit_request(gateway, 0)
    sim.run()
    assert system.failed_requests == 0
    assert [record.server for record in served] == [2, 2, 2, 2]


def test_request_fails_when_all_replicas_down(setup):
    sim, system, injector = setup
    injector.fail(1)  # sole replica of object 1
    served = served_log(system)
    system.submit_request(0, 1)
    assert system.failed_requests == 1
    sim.run()
    assert served == [] and system.latency_histogram.count == 0


def test_recovery_restores_service(setup):
    sim, system, injector = setup
    injector.fail(1)
    injector.recover(1)
    served = served_log(system)
    system.submit_request(0, 1)
    sim.run()
    assert system.failed_requests == 0
    assert [record.server for record in served] == [1]


def test_in_flight_requests_reroute_on_failure(setup):
    sim, system, injector = setup
    system.hosts[2].store.add(0)
    system.redirectors.for_object(0).replica_created(0, 2, 1)
    served = served_log(system)
    system.submit_request(3, 0)
    # Gateway 3's closest replica is host 2: fail it while the request
    # is in flight toward it.
    injector.fail(2)
    sim.run()
    assert system.failed_requests == 0
    assert system.rerouted_requests == 1
    assert [record.server for record in served] == [0]


def test_failed_host_refuses_create_obj(setup):
    sim, system, injector = setup
    injector.fail(3)
    accepted = handle_create_obj(
        system, 0, 3, PlacementAction.REPLICATE, 0, 0.1, PlacementReason.GEO
    )
    assert not accepted


def test_last_available_replica_never_dropped(setup):
    sim, system, injector = setup
    system.hosts[2].store.add(0)
    redirector = system.redirectors.for_object(0)
    redirector.replica_created(0, 2, 1)
    injector.fail(0)
    # Host 2 now holds the only *available* replica: drop refused even
    # though another (failed) registration exists.
    assert not redirector.request_drop(0, 2)
    # Dropping the failed host's replica is fine.
    assert redirector.request_drop(0, 0)


def test_double_fail_and_double_recover_rejected(setup):
    _, _, injector = setup
    injector.fail(0)
    with pytest.raises(ProtocolError):
        injector.fail(0)
    injector.recover(0)
    with pytest.raises(ProtocolError):
        injector.recover(0)


def test_scheduled_outage_and_downtime(setup):
    sim, system, injector = setup
    injector.schedule_outage(2, at=10.0, duration=5.0)
    sim.run(until=8.0)
    assert system.hosts[2].available
    sim.run(until=12.0)
    assert not system.hosts[2].available
    sim.run(until=20.0)
    assert system.hosts[2].available
    assert injector.downtime(2, until=20.0) == pytest.approx(5.0)
    assert injector.downtime(2, until=12.0) == pytest.approx(2.0)


def test_random_outages_complete_within_horizon(setup):
    sim, system, injector = setup
    count = injector.schedule_random_outages(
        RngFactory(5).stream("fail"), mtbf=100.0, mttr=10.0, horizon=500.0
    )
    sim.run(until=500.0)
    assert count == sum(1 for e in injector.events if e.failed)
    assert count == sum(1 for e in injector.events if not e.failed)
    assert all(host.available for host in system.hosts.values())


def test_system_survives_failures_under_load(setup):
    sim, system, injector = setup
    system.start()
    generators = attach_generators(
        sim, system, UniformWorkload(8), 4.0, RngFactory(6)
    )
    injector.schedule_outage(0, at=30.0, duration=40.0)
    injector.schedule_outage(2, at=50.0, duration=20.0)
    serviced = served_log(system)
    sim.run(until=200.0)
    for generator in generators:
        generator.stop()
    system.stop()
    sim.run()
    # Sole-replica objects on the failed hosts fail during the outage...
    assert system.failed_requests > 0
    # ...but the system keeps serving everything else and recovers fully.
    assert len(serviced) > system.failed_requests
    assert serviced[-1].completed_at > 170.0
    system.check_invariants()


def test_crash_loses_queued_work(setup):
    """Requests admitted to a host's queue die with the host."""
    sim, system, injector = setup
    host = system.hosts[1]
    # Stack half a second of work for object 1 (sole replica on host 1,
    # service time 5 ms) and crash the host while most of it is queued.
    serviced = served_log(system)
    for _ in range(100):
        system.submit_request(0, 1)
    sim.schedule_at(0.1, injector.fail, 1)
    sim.run()
    assert serviced  # work completed before the crash was answered
    assert system.lost_requests > 0  # what was still queued died with it
    # Every request is accounted for, one way or the other.
    assert len(serviced) + system.lost_requests == 100
    assert system.failed_requests == system.dropped_requests == 0
    # The queue is gone: recovery starts cold, with no phantom backlog.
    injector.recover(1)
    assert host.queue_depth(sim.now) == 0.0


def test_cold_recovery_rebuilds_load_metrics(setup):
    sim, system, injector = setup
    host = system.hosts[1]
    # Give the host measurable pre-crash state.
    host.estimator.on_measurement(42.0, 0.0)
    host.meter.record_service(1)
    host.record_service(1, 0)
    assert host.object_access_counts(1) == {1: 1, 0: 1}
    host.record_service(1, 0)
    host.offloading = True
    injector.fail(1)
    sim.run(until=10.0)
    injector.recover(1)
    assert host.available
    assert host.upper_load == 0.0
    assert host.lower_load == 0.0
    assert not host.offloading
    assert host.object_access_counts(1) == {}
    # The first post-recovery measurement interval rebuilds the metrics.
    host.meter.record_service(1)
    host.measure(sim.now + 20.0)
    assert host.measured_load > 0.0


def test_outage_validation(setup):
    _, _, injector = setup
    with pytest.raises(ProtocolError):
        injector.schedule_outage(0, at=1.0, duration=0.0)
    with pytest.raises(ProtocolError):
        injector.schedule_random_outages(
            RngFactory(1).stream("x"), mtbf=0, mttr=1, horizon=10
        )
