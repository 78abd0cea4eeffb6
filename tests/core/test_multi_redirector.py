"""Tests for hash-partitioned multi-redirector operation.

The paper divides the URL namespace across redirectors for scalability;
the protocol must behave identically with any partition count.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ProtocolError
from repro.network.message import MessageClass
from repro.network.transport import Network
from repro.core.protocol import HostingSystem
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import grid_topology
from repro.workloads.base import UniformWorkload, attach_generators
from tests.conftest import served_log


@pytest.fixture
def system():
    sim = Simulator()
    routes = RoutingDatabase(grid_topology(3, 3))
    network = Network(sim, routes)
    system = HostingSystem(
        sim,
        network,
        ProtocolConfig(
            high_watermark=20.0,
            low_watermark=10.0,
            deletion_threshold=0.02,
            replication_threshold=0.15,
            placement_interval=50.0,
            measurement_interval=10.0,
        ),
        num_objects=12,
        redirector_nodes=[0, 4, 8],
    )
    system.initialize_round_robin()
    return system


def test_objects_partitioned_across_redirectors(system):
    assert len(system.redirectors.services) == 3
    for obj in range(12):
        service = system.redirectors.for_object(obj)
        assert service.node == [0, 4, 8][obj % 3]
        assert service.knows(obj)
        # The other services know nothing about this object.
        for other in system.redirectors.services:
            if other is not service:
                assert not other.knows(obj)


def test_total_replicas_sums_partitions(system):
    assert system.redirectors.total_replicas() == 12
    assert system.total_replicas() == 12


def test_full_run_with_three_redirectors(system):
    sim = system.sim
    system.start()
    generators = attach_generators(
        sim, system, UniformWorkload(12), 3.0, RngFactory(41)
    )
    completed = served_log(system)
    sim.run(until=300.0)
    for generator in generators:
        generator.stop()
    system.check_invariants()
    assert len(completed) > 5000
    assert system.dropped_requests == 0


def test_requests_route_via_owning_redirector(system):
    served = served_log(system)
    system.submit_request(gateway=8, obj=1)  # redirector at node 4
    system.sim.run()
    # Request hops: gateway(8)->redirector(4) is 2 hops on a 3x3 grid,
    # then redirector(4)->host(1) is 1 hop.
    request_byte_hops = system.network.byte_hops[MessageClass.REQUEST]
    assert request_byte_hops == 3 * system.request_bytes
    assert [(record.server, record.response_hops) for record in served] == [(1, 3)]


def test_board_node_is_first_redirector(system):
    assert system.board_node == 0


def test_requires_at_least_one_object():
    sim = Simulator()
    routes = RoutingDatabase(grid_topology(2, 2))
    network = Network(sim, routes)
    with pytest.raises(ProtocolError):
        HostingSystem(sim, network, ProtocolConfig(), num_objects=0)
    with pytest.raises(ProtocolError):
        HostingSystem(sim, network, ProtocolConfig(), num_objects=5, object_size=0)
