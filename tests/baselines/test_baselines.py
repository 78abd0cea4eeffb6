"""Tests for the baseline policies, including Section 3's strawman flaws."""

import pytest

from repro.baselines.closest import ClosestReplicaRedirector
from repro.baselines.full_replication import replicate_everywhere
from repro.baselines.round_robin import RoundRobinRedirector
from repro.core.config import ProtocolConfig
from repro.core.protocol import HostingSystem
from repro.errors import ProtocolError
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import two_cluster_topology
from tests.conftest import make_system, served_log

AMERICA_GW, EUROPE_GW = 0, 8
AMERICA_HOST, EUROPE_HOST = 1, 7


def build_redirector(cls):
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    routes = RoutingDatabase(topology)
    service = cls(0, routes)
    service.register_initial(0, AMERICA_HOST)
    service.replica_created(0, EUROPE_HOST, 1)
    return service


def test_round_robin_ignores_proximity():
    """The Section 3 flaw: half the American requests cross the ocean."""
    service = build_redirector(RoundRobinRedirector)
    choices = [service.choose_replica(AMERICA_GW, 0) for _ in range(100)]
    assert choices.count(AMERICA_HOST) == 50
    assert choices.count(EUROPE_HOST) == 50


def test_round_robin_balances_load_perfectly():
    service = build_redirector(RoundRobinRedirector)
    pattern = [AMERICA_GW] * 100
    counts = {AMERICA_HOST: 0, EUROPE_HOST: 0}
    for gw in pattern:
        counts[service.choose_replica(gw, 0)] += 1
    assert counts[AMERICA_HOST] == counts[EUROPE_HOST]


def test_closest_ignores_load():
    """The other Section 3 flaw: a local hotspot cannot shed load no
    matter how many remote replicas exist."""
    service = build_redirector(ClosestReplicaRedirector)
    for host in (2, 3):  # extra replicas near America too
        service.replica_created(0, host, 1)
    choices = [service.choose_replica(AMERICA_GW, 0) for _ in range(100)]
    # Every single request goes to the closest (cluster A) replica.
    assert all(choice in (AMERICA_HOST, 2, 3) for choice in choices)
    assert len(set(choices)) == 1


def test_closest_respects_proximity_for_both_regions():
    service = build_redirector(ClosestReplicaRedirector)
    assert service.choose_replica(AMERICA_GW, 0) == AMERICA_HOST
    assert service.choose_replica(EUROPE_GW, 0) == EUROPE_HOST


def test_static_system_never_relocates():
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    routes = RoutingDatabase(topology)
    network = Network(sim, routes)
    system = HostingSystem(
        sim, network, ProtocolConfig(), num_objects=10, enable_placement=False
    )
    system.initialize_round_robin()
    system.start()
    for gw in range(topology.num_nodes):
        for obj in range(10):
            system.submit_request(gw, obj)
    sim.run(until=500.0)
    assert system.placement_events == []
    assert system.total_replicas() == 10
    system.check_invariants()


def test_replicate_everywhere_installs_full_mirror():
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=2, bridge_length=1)
    system = make_system(sim, topology, num_objects=3)
    replicate_everywhere(system)
    n = topology.num_nodes
    assert system.total_replicas() == 3 * n
    system.check_invariants()


def test_replicate_everywhere_requires_fresh_system():
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=2, bridge_length=1)
    system = make_system(sim, topology, num_objects=3)
    system.place_initial(0, 0)
    with pytest.raises(ProtocolError):
        replicate_everywhere(system)


def test_full_replication_sends_requests_to_distant_hosts():
    """Section 4's point: under the load-oblivious distribution, needless
    replicas pull requests away from the local copy."""
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    system = make_system(sim, topology, num_objects=1, enable_placement=False)
    replicate_everywhere(system)
    records = served_log(system)
    for _ in range(200):
        system.submit_request(AMERICA_GW, 0)
    sim.run()
    assert len(records) == 200
    remote = sum(1 for r in records if r.response_hops > 1)
    assert remote > 50  # a solid share of requests travels needlessly
