"""Property-based tests for placement-protocol invariants.

Hypothesis generates random access-count patterns and load states; the
placement round must always preserve the structural invariants (registry
subset, affinity agreement, object availability) regardless of input.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.topology.generators import grid_topology
from tests.conftest import make_system

N_NODES = 9
N_OBJECTS = 6

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
)

access_patterns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_OBJECTS - 1),  # object
        st.integers(min_value=0, max_value=N_NODES - 1),  # gateway
        st.integers(min_value=1, max_value=120),  # request count
    ),
    min_size=0,
    max_size=15,
)
load_states = st.lists(
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    min_size=N_NODES,
    max_size=N_NODES,
)


def build_system(accesses, loads):
    sim = Simulator()
    system = make_system(
        sim, grid_topology(3, 3), num_objects=N_OBJECTS, config=CONFIG
    )
    system.initialize_round_robin()
    for node, load in enumerate(loads):
        system.hosts[node].estimator.on_measurement(load, 0.0)
        system.board.report(node, load, 0.0)
    for obj, gateway, count in accesses:
        home = obj % N_NODES
        host = system.hosts[home]
        if obj not in host.store:
            continue
        for _ in range(count):
            host.record_service(obj, gateway)
        host.meter.object_loads[obj] = count / 100.0
    sim.schedule_at(100.0, lambda: None)
    sim.run(until=100.0)
    return system


@settings(max_examples=50, deadline=None)
@given(access_patterns, load_states)
def test_placement_round_preserves_invariants(accesses, loads):
    system = build_system(accesses, loads)
    for node in range(N_NODES):
        system.engine.run_host(node, 100.0)
    system.check_invariants()
    # Every object still reachable.
    for obj in range(N_OBJECTS):
        assert len(system.replica_hosts(obj)) >= 1


@settings(max_examples=50, deadline=None)
@given(access_patterns, load_states)
def test_placement_round_respects_candidate_load_caps(accesses, loads):
    """No replica is ever created on a host whose pre-accept upper load
    estimate was above the low watermark."""
    system = build_system(accesses, loads)
    overloaded_before = {
        node
        for node in range(N_NODES)
        if system.hosts[node].upper_load > CONFIG.low_watermark
    }
    before = {
        node: set(system.hosts[node].store.objects()) for node in range(N_NODES)
    }
    for node in range(N_NODES):
        system.engine.run_host(node, 100.0)
    for node in overloaded_before:
        gained = set(system.hosts[node].store.objects()) - before[node]
        assert not gained, (node, gained)


@settings(max_examples=50, deadline=None)
@given(access_patterns, load_states)
def test_placement_round_is_deterministic(accesses, loads):
    a = build_system(accesses, loads)
    b = build_system(accesses, loads)
    for node in range(N_NODES):
        a.engine.run_host(node, 100.0)
        b.engine.run_host(node, 100.0)
    for obj in range(N_OBJECTS):
        assert sorted(a.replica_hosts(obj)) == sorted(b.replica_hosts(obj))
    assert len(a.placement_events) == len(b.placement_events)


@settings(max_examples=30, deadline=None)
@given(access_patterns)
def test_deciding_host_never_raises_own_affinity(accesses):
    """A placement round never increases any affinity on the deciding
    host itself — the host is excluded from its own candidate lists, so
    only other hosts' CreateObj calls can raise an affinity here."""
    system = build_system(accesses, [0.0] * N_NODES)
    host = system.hosts[0]
    before = {obj: host.store.affinity(obj) for obj in host.store.objects()}
    system.engine.run_host(0, 100.0)
    for obj, affinity in before.items():
        if obj in host.store:
            assert host.store.affinity(obj) <= affinity
