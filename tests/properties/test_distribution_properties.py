"""Property-based tests for the Figure 2 request-distribution algorithm.

Hypothesis drives random replica sets, affinities and request streams and
checks the algorithm's structural guarantees: the factor-2 fairness bound
on unit request counts, conservation of requests, determinism, and the
reset rule.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.redirector import RedirectorService
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import ring_topology
from tests.conftest import replica_infos

N_NODES = 12


def make_service(replicas: list[tuple[int, int]]):
    routes = RoutingDatabase(ring_topology(N_NODES))
    service = RedirectorService(0, routes)
    (first_host, first_affinity), *rest = replicas
    service.register_initial(0, first_host)
    for _ in range(first_affinity - 1):
        service.replica_created(0, first_host, service.affinity(0, first_host) + 1)
    for host, affinity in rest:
        service.replica_created(0, host, 1)
        for _ in range(affinity - 1):
            service.replica_created(0, host, service.affinity(0, host) + 1)
    return service


replica_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
)
gateway_streams = st.lists(
    st.integers(min_value=0, max_value=N_NODES - 1), min_size=1, max_size=300
)


@settings(max_examples=60, deadline=None)
@given(replica_sets, gateway_streams)
def test_factor2_fairness_invariant(replicas, gateways):
    """At all times, max unit request count <= 2 * min + 1: the closest
    replica can never run away with more than twice the per-unit share of
    the least-requested one (the property Theorems 1-5 build on)."""
    service = make_service(replicas)
    for gateway in gateways:
        service.choose_replica(gateway, 0)
        units = [
            info.request_count / info.affinity
            for info in replica_infos(service, 0).values()
        ]
        assert max(units) <= 2 * min(units) + 1


@settings(max_examples=40, deadline=None)
@given(replica_sets, gateway_streams)
def test_requests_are_conserved(replicas, gateways):
    service = make_service(replicas)
    for gateway in gateways:
        assert service.choose_replica(gateway, 0) in service.replica_hosts(0)
    total_increments = sum(
        info.request_count - 1 for info in replica_infos(service, 0).values()
    )
    # A sole replica at affinity 1 is registered flat and keeps no count.
    counted = len(replicas) > 1 or replicas[0][1] > 1
    assert total_increments == (len(gateways) if counted else 0)


@settings(max_examples=30, deadline=None)
@given(replica_sets, gateway_streams)
def test_distribution_is_deterministic(replicas, gateways):
    a = make_service(replicas)
    b = make_service(replicas)
    for gateway in gateways:
        assert a.choose_replica(gateway, 0) == b.choose_replica(gateway, 0)


@settings(max_examples=30, deadline=None)
@given(replica_sets, gateway_streams, st.integers(min_value=0, max_value=11))
def test_reset_restores_unit_counts(replicas, gateways, new_host):
    """Any replica-set change resets every request count to exactly 1."""
    service = make_service(replicas)
    for gateway in gateways:
        service.choose_replica(gateway, 0)
    if new_host in service.replica_hosts(0):
        service.replica_created(
            0, new_host, service.affinity(0, new_host) + 1
        )
    else:
        service.replica_created(0, new_host, 1)
    assert all(
        info.request_count == 1 for info in service._replicas[0].values()
    )


@settings(max_examples=30, deadline=None)
@given(replica_sets)
def test_sole_gateway_prefers_closest(replicas):
    """With equal affinities and fresh counts, the first request from any
    gateway goes to (one of) its closest replicas."""
    service = make_service([(host, 1) for host, _ in replicas])
    routes = service._routes
    gateway = 5
    chosen = service.choose_replica(gateway, 0)
    best = min(routes.distance(gateway, host) for host, _ in replicas)
    assert routes.distance(gateway, chosen) == best
