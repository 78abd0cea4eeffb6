"""Bulk initial placement against the loop it replaced.

Until PR 22 ``initialize_round_robin`` *was* the loop below:
``place_initial(obj, obj % n)`` for every object.  It now fills each
store in one pass and registers each redirector's share in one call (ISSUE 24
deleted the collector pause it had: the flat registry allocates nothing
GC-tracked per object); the loop is the oracle.  With several
redirector services each service (and each of its observers) still sees
its own objects in ascending id — only the interleaving *across* services
is service-major where the loop's was object-major.
"""

import gc

import pytest

from repro.errors import ProtocolError
from repro.sim.engine import Simulator
from repro.topology.generators import grid_topology
from tests.conftest import make_system, replica_infos

NUM_OBJECTS = 41  # not a multiple of the 9 nodes or of 3 services


def build(redirector_nodes):
    system = make_system(
        Simulator(),
        grid_topology(3, 3),
        num_objects=NUM_OBJECTS,
        redirector_nodes=redirector_nodes,
    )
    calls = []
    for service in system.redirectors.services:
        seen = []
        calls.append(seen)
        service.add_observer(lambda *event, seen=seen: seen.append(event))
    return system, calls


def loop_placement(system):
    n = system.routes.num_nodes
    for obj in range(system.num_objects):
        system.place_initial(obj, obj % n)


def observable_state(system):
    stores = {
        node: [(obj, host.store.affinity(obj)) for obj in host.store.objects()]
        for node, host in system.hosts.items()
    }
    registries = [
        {
            "replicas": {
                obj: [
                    (host, info.affinity, info.request_count)
                    for host, info in replica_infos(service, obj).items()
                ]
                for obj in service._replicas
            },
            "order": list(service._replicas),
            "objects_on": {node: service.objects_on(node) for node in system.hosts},
        }
        for service in system.redirectors.services
    ]
    return stores, registries


@pytest.mark.parametrize("redirector_nodes", [[4], [0, 4, 8]])
def test_bulk_placement_equals_the_per_object_loop(redirector_nodes):
    looped, looped_calls = build(redirector_nodes)
    loop_placement(looped)
    bulk, bulk_calls = build(redirector_nodes)
    bulk.initialize_round_robin()
    assert observable_state(bulk) == observable_state(looped)
    assert bulk_calls == looped_calls
    assert sum(map(len, bulk_calls)) == NUM_OBJECTS
    for obj in range(NUM_OBJECTS):
        assert bulk.redirectors.for_object(obj).replica_hosts(obj) == [obj % 9]
    bulk.check_invariants()


@pytest.mark.parametrize("objs", [[], [5], [9, 2, 7, 40, 3, 12, 6]])
@pytest.mark.parametrize("redirector_nodes", [[4], [0, 4, 8]])
def test_partition_splits_by_for_object_and_keeps_order(redirector_nodes, objs):
    system, _ = build(redirector_nodes)
    group = system.redirectors
    parts = group.partition(objs)
    assert [service for service, _ in parts] == group.services
    for service, share in parts:
        assert share == [obj for obj in objs if group.for_object(obj) is service]


def already_placed(system):
    system.place_initial(13, 13 % 9)


def already_registered(system):
    system.redirectors.for_object(13).register_initial(13, 2)


@pytest.mark.parametrize("redirector_nodes", [[4], [0, 4, 8]])
@pytest.mark.parametrize("spoil", [already_placed, already_registered])
def test_bulk_placement_refuses_what_the_loop_refuses(spoil, redirector_nodes):
    messages = []
    for place in (loop_placement, lambda system: system.initialize_round_robin()):
        system, _ = build(redirector_nodes)
        spoil(system)
        with pytest.raises(ProtocolError) as refusal:
            place(system)
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]
    expected = "placed on 4" if spoil is already_placed else "registered"
    assert messages[0] == f"object 13 already {expected}"


@pytest.mark.parametrize("enabled_on_entry", [True, False])
@pytest.mark.parametrize("spoil", [None, already_placed, already_registered])
def test_collector_state_survives_placement(spoil, enabled_on_entry):
    system, _ = build([4])
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled_on_entry else gc.disable)()
        if spoil is None:
            system.initialize_round_robin()
        else:
            spoil(system)
            with pytest.raises(ProtocolError):
                system.initialize_round_robin()
        assert gc.isenabled() is enabled_on_entry
    finally:
        (gc.enable if was_enabled else gc.disable)()
