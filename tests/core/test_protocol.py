"""Tests for the HostingSystem wiring: request flow, processes, invariants."""

import pytest

from repro.errors import ProtocolError
from repro.network.message import MessageClass
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system, served_log


@pytest.fixture
def system():
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=8)
    system.initialize_round_robin()
    return system


def test_round_robin_initialization(system):
    # Object i on node i mod 4.
    for obj in range(8):
        assert system.replica_hosts(obj) == [obj % 4]
    assert system.total_replicas() == 8
    assert system.replicas_per_object() == 1.0
    system.check_invariants()


def test_duplicate_initial_placement_rejected(system):
    with pytest.raises(ProtocolError):
        system.place_initial(0, 0)


def test_request_flow_end_to_end(system):
    served = served_log(system)
    assert system.submit_request(gateway=3, obj=0) is None
    system.sim.run()
    (record,) = served
    assert (record.obj, record.gateway, record.server) == (0, 3, 0)
    assert record.response_hops == 3
    assert record.issued_at == 0.0
    # Latency: request legs + service + response transfer.
    network = system.network
    legs = network.delay(2, system.request_bytes) + network.delay(
        1, system.request_bytes
    )
    assert record.latency == pytest.approx(
        legs + 1 / 200 + network.delay(3, system.object_size)
    )
    # The same completion, as the ledger holds it.
    assert system.completed == 1
    assert system.total_latency == record.latency == system.max_latency
    assert system.total_response_hops == 3
    assert system.hosts[0].serviced_total == 1


def test_local_request_has_zero_hops(system):
    served = served_log(system)
    system.submit_request(gateway=1, obj=1)
    system.sim.run()
    (record,) = served
    assert record.server == 1
    assert record.response_hops == 0


def test_response_bytes_dominate_accounting(system):
    system.submit_request(gateway=3, obj=0)
    system.sim.run()
    response = system.network.byte_hops[MessageClass.RESPONSE]
    request = system.network.byte_hops[MessageClass.REQUEST]
    assert response == system.object_size * 3
    assert 0 < request < response / 10


def test_queueing_is_fcfs(system):
    system.meter_completions(60.0, keep_samples=True)
    for _ in range(3):
        system.submit_request(gateway=0, obj=0)
    system.sim.run()
    # Same legs and service time for all three: what separates their
    # latencies is the time each spent queued behind the others.
    samples = system.latency_samples
    delays = [latency - samples[0] for latency in samples]
    assert delays[0] == 0.0
    assert delays[1] == pytest.approx(1 / 200, abs=1e-9)
    assert delays[2] == pytest.approx(2 / 200, abs=1e-9)


def test_dropped_request_is_reported(system):
    host = system.hosts[0]
    host.max_queue_delay = 0.004  # less than one service time
    served = served_log(system)
    system.meter_completions(60.0)
    for _ in range(3):
        system.submit_request(gateway=0, obj=0)
    system.sim.run()
    # Only the first request fits; the two queued behind it overflow.
    assert system.dropped_requests == 2
    assert host.dropped_total == 2
    assert system.drop_counts == {0: 2}
    assert len(served) == system.completed == 1


def test_request_rerouted_if_replica_vanished(system):
    """A request in flight toward a replica that was dropped must be
    re-routed to a surviving replica, not lost."""
    system.hosts[2].store.add(0)
    system.redirectors.for_object(0).replica_created(0, 2, 1)
    completed = served_log(system)

    # Gateway 3's closest replica is host 2: the request is in flight
    # toward it when the replica is dropped through the proper channel.
    system.submit_request(gateway=3, obj=0)
    assert system.redirectors.for_object(0).request_drop(0, 2)
    system.hosts[2].store.drop(0)
    system.sim.run()
    assert system.rerouted_requests == 1
    assert [record.server for record in completed] == [0]
    assert system.replica_hosts(0) == [0]
    assert system.dropped_requests == system.lost_requests == 0


def test_measurement_process_reports_to_board(system):
    system.start()
    for _ in range(10):
        system.submit_request(gateway=0, obj=0)
    system.sim.run(until=21.0)
    assert system.board.reported_load(0) is not None
    assert len(system.board) == 4


def test_start_twice_rejected(system):
    system.start()
    with pytest.raises(ProtocolError):
        system.start()


def test_placement_processes_staggered(system):
    """Host placement rounds must not all fire at the same instant, and
    none may fire before one full interval has elapsed."""
    fired = []
    system.engine.run_host = lambda node, now: fired.append((node, now))
    system.start()
    system.sim.run(until=210.0)
    times = sorted(t for _, t in fired)
    assert times[0] >= system.config.placement_interval
    assert len(set(times)) > 1


def test_invariant_checker_detects_phantom_replica(system):
    system.hosts[3].store.add(0)  # host copy without registration
    with pytest.raises(ProtocolError):
        system.check_invariants()


def test_invariant_checker_detects_affinity_mismatch(system):
    system.hosts[0].store.add(0)  # affinity 2 locally, 1 at redirector
    with pytest.raises(ProtocolError):
        system.check_invariants()


def test_submit_request_rejects_unknown_objects(system):
    with pytest.raises(ProtocolError):
        system.submit_request(gateway=0, obj=99)
    served = served_log(system)
    system.submit_request(gateway=0, obj=3)
    system.sim.run()
    assert [(record.gateway, record.obj) for record in served] == [(0, 3)]


def test_redirector_placed_at_min_mean_distance_node(system):
    expected = system.routes.min_mean_distance_node()
    assert system.redirectors.services[0].node == expected
