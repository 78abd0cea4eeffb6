"""The 500-host / 100k-object preset, pinned exactly.

No other tier-1 test runs ``large_topology_scenario``.  The run is
seeded and deterministic, so the completed-request count is a
fingerprint of the calendar queue and batched arrivals at scale: any
drift means the engine changed simulation behaviour, not speed (speed
is ``bench/run.py --workload sim-large``).
"""

import tracemalloc

import pytest

from repro.errors import ProtocolError
from repro.routing.shortest_path import ShortestPathIndex
from repro.scenarios.presets import LARGE_TOPOLOGY_OBJECTS, large_topology_scenario
from repro.scenarios.runner import run_scenario
from repro.sim.engine import Simulator
from repro.topology.generators import grid_topology
from repro.workloads import canonical_object_ids
from tests.conftest import make_system, run_fresh


def test_large_preset_completes_exactly_and_keeps_invariants():
    config, topology = large_topology_scenario(duration=20.0)
    result = run_scenario(config, topology=topology)
    assert result.latency.completed == 102656
    assert result.engine_mode() == "fast lane: installed"
    result.system.check_invariants()


def test_routing_index_holds_distances_only():
    """A byte budget, not a timing: 500 distance rows are ~2 MB; the n²
    parent lists the index carried until PR 22 made it 26.7 MB."""
    _, topology = large_topology_scenario()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index = ShortestPathIndex(topology)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 6e6
    assert sum(map(len, index.rows)) == 0
    index.path(0, topology.num_nodes - 1)
    assert sum(map(len, index.rows)) == 1


def test_large_preset_loads_no_array_library():
    """A module budget: until ISSUE 24 drawing the preset's ~2,000 edges
    imported numpy and 175 scipy modules (44 MB resident) through
    ``nx.random_geometric_graph``."""
    script = """
import sys
from repro.scenarios.presets import large_topology_scenario
from repro.scenarios.runner import run_scenario
config, topology = large_topology_scenario(duration=2.0)
result = run_scenario(config, topology=topology)
result.system.check_invariants()
assert result.latency.completed > 5000, result.latency.completed
print([name for name in ("numpy", "scipy") if name in sys.modules])
"""
    assert run_fresh(script) == "[]"


def test_registry_and_invariant_check_stay_inside_their_byte_budgets():
    """Byte budgets, not timings.  The registry: one dict slot per object
    (5.2 MB; 33.2 MB while every object had its own dict and
    ``ReplicaInfo``).  ``check_invariants()``: a counter per host (it
    collected 100k ``(obj, node)`` tuples, ~12 MB, until ISSUE 24)."""
    _, topology = large_topology_scenario()
    system = make_system(Simulator(), topology, num_objects=LARGE_TOPOLOGY_OBJECTS)
    tracemalloc.start()
    try:
        system.initialize_round_robin()
        registry = sum(
            stat.size
            for stat in tracemalloc.take_snapshot().statistics("filename")
            if stat.traceback[0].filename.replace("\\", "/").endswith("core/redirector.py")
        )
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        system.check_invariants()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1e6 < registry < 8e6
    assert peak - before < 1e6


def test_initial_placement_keys_everything_by_one_int_per_object_and_node():
    """An identity check and a byte budget: stores and registry share the
    request generators' id table, and the registry's host values are the
    hosts' own node ints.  While ``initialize_round_robin`` built its own
    100k ids and a fresh int per ``obj % n`` above 256, ~4.5 MB was traced
    to ``core/protocol.py``."""
    _, topology = large_topology_scenario()
    system = make_system(Simulator(), topology, num_objects=LARGE_TOPOLOGY_OBJECTS)
    ids = canonical_object_ids(LARGE_TOPOLOGY_OBJECTS)
    tracemalloc.start()
    try:
        system.initialize_round_robin()
        placement = sum(
            stat.size
            for stat in tracemalloc.take_snapshot().statistics("filename")
            if stat.traceback[0].filename.replace("\\", "/").endswith("core/protocol.py")
        )
    finally:
        tracemalloc.stop()
    assert placement < 5e5
    for host in system.hosts.values():
        assert all(obj is ids[obj] for obj in host.store.objects())
    (service,) = system.redirectors.services
    assert len(service._replicas) == LARGE_TOPOLOGY_OBJECTS
    for obj, host in service._replicas.items():
        assert obj is ids[obj]
        assert host is system.hosts[host].node


@pytest.mark.parametrize(
    "spoil, message",
    [
        # Object 13 lives on host 4 (13 % 9).
        (lambda s: s.hosts[4].store.drop(13), "redirector lists 13 on 4 but host lacks it"),
        (lambda s: s.hosts[4].store.add(13), "affinity mismatch for object 13 on host 4"),
        (lambda s: s.hosts[2].store.add(13), "host 2 holds unregistered replica of 13"),
        # Several strays: the first host, then the first in its store's order.
        (
            lambda s: [s.hosts[6].store.add(1), s.hosts[5].store.add(40), s.hosts[5].store.add(3)],
            "host 5 holds unregistered replica of 40",
        ),
        # An id the system does not host at all.
        (lambda s: s.hosts[0].store.add(41), "host 0 holds unregistered replica of 41"),
        # A registered replica elsewhere does not cover for a stray.
        (
            lambda s: [
                s.hosts[7].store.add(13),
                s.redirectors.for_object(13).replica_created(13, 8, 1),
                s.hosts[8].store.add(13),
            ],
            "host 7 holds unregistered replica of 13",
        ),
    ],
)
def test_check_invariants_still_names_what_is_wrong(spoil, message):
    """The counting check reports what the collecting one reported."""
    system = make_system(Simulator(), grid_topology(3, 3), num_objects=41)
    system.initialize_round_robin()
    spoil(system)
    with pytest.raises(ProtocolError) as refusal:
        system.check_invariants()
    assert str(refusal.value) == message
