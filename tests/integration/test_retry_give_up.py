"""Every retrying conversation gives up in the simulator, and the registry
stays inside the stores (DESIGN §8's retry table).

A conversation whose budget runs out is not delivered by fiat: its
caller applies the row's give-up rule.  Whatever gives up, the registry
lists only copies that exist and never loses an object's last copy
(``check_invariants`` under a fault plane).  A copy left unlisted — its
registration gave up, or its drop approval's answer was lost — is listed
again when its drop is refused, and then judged like any other.
"""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.placement import AffinityOutcome
from repro.core.runtime import BOUNDED_ATTEMPTS, ReplicaCreated
from repro.network.faults import FaultConfig, FaultPlane
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import build_system
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import line_topology
from repro.workloads.base import attach_generators
from tests.conftest import make_system


def line(**faults):
    """Three hosts on a line, object ``i`` on host ``i`` and the redirector
    at node 0, under ``faults``; nothing is requested, so every copy is
    cold.  (A zero-hop message crosses no link and is never lost.)"""
    plane = FaultPlane(FaultConfig(enabled=True, **faults), random.Random(5))
    system = make_system(
        Simulator(), line_topology(3), num_objects=3, config=ProtocolConfig(),
        fault_plane=plane, redirector_nodes=[0],
    )
    system.initialize_round_robin()
    return system


def second_copy(system, listed: bool = True, node: int = 1):
    """Host ``node`` holds object 0 too, listed or not."""
    system.hosts[node].store.add(0)
    if listed:
        system.redirectors.for_object(0).replica_created(0, node, 1)


def request_drop(system):
    second_copy(system)
    assert system.drive(system.engine.reduce_affinity(1, 0)) is AffinityOutcome.REFUSED
    assert system.rpc.retries == BOUNDED_ATTEMPTS - 1
    assert system.replica_hosts(0) == [0, 1]  # never judged: both copies stay


def replica_created(system):
    second_copy(system, listed=False)
    assert system.notice(ReplicaCreated(0, 1, 1)) is False
    assert system.rpc.notify_retransmits == BOUNDED_ATTEMPTS - 1
    assert system.replica_hosts(0) == [0] and 0 in system.hosts[1].store


def liveness(system):
    second_copy(system, node=2)
    service = system.redirectors.for_object(0)
    assert service.request_drop(0, 0) is False  # the survivor reads as dead
    assert system.rpc.retries == BOUNDED_ATTEMPTS - 1
    assert system.replica_hosts(0) == [0, 2]


def stranded_by_a_crash(system):
    """Host 0 crashes; the detector's verdict opens object 0's window."""
    system.hosts[0].crash(0.0)
    for service in system.redirectors.services:
        service.set_host_available(0, False)
    daemon = system.repair_daemon
    daemon.on_host_down(0, 0.0)
    daemon._tick(10.0)
    assert daemon.repairs == 0 and 0 in daemon.unavailable_since  # still open
    return daemon


def repair_copy(system):
    stranded_by_a_crash(system)
    assert system.rpc.bulk_retransmits == BOUNDED_ATTEMPTS - 1
    assert not any(0 in system.hosts[node].store for node in (1, 2))


def repair_notify(system):
    stranded_by_a_crash(system)
    assert system.rpc.notify_retransmits == BOUNDED_ATTEMPTS - 1
    assert 0 in system.hosts[1].store  # copied, but left unlisted
    assert system.replica_hosts(0) == [0]


#: Each bounded row the simulator sends about the registry, driven to
#: give-up by losing every message of the classes it uses.
GIVE_UPS = {
    "RequestDrop": (request_drop, {"drop_prob": 1.0}),
    "ReplicaCreated": (replica_created, {"drop_prob": 1.0}),
    "Liveness": (liveness, {"drop_prob": 1.0}),
    "RepairCopy": (repair_copy, {"drop_prob": 1.0}),
    "RepairNotify": (repair_notify, {"drop_prob_control": 1.0}),
}


@pytest.mark.parametrize("row", sorted(GIVE_UPS))
def test_a_bounded_row_gives_up_and_the_registry_stays_inside_the_stores(row):
    drive, faults = GIVE_UPS[row]
    system = line(**faults)
    drive(system)
    system.check_invariants()  # registry ⊆ stores, every object listed somewhere


def test_an_unlisted_copy_is_listed_again_and_dropped_within_two_rounds():
    """Round one: the arbiter does not list host 1's copy of object 0, so
    it refuses the drop and the host registers the copy again.  Round
    two: the copy is judged like any other and, with host 0's copy
    surviving, dropped."""
    system = line(drop_prob=0.0)
    second_copy(system, listed=False)
    system.drive(system.engine.run_host(1, 100.0))
    assert system.replica_hosts(0) == [0, 1]
    system.check_invariants()
    system.drive(system.engine.run_host(1, 200.0))
    assert 0 not in system.hosts[1].store
    assert system.replica_hosts(0) == [0]
    assert system.replica_hosts(1) == [1]  # the sole copy is never dropped


def test_harsh_control_loss_keeps_the_registry_inside_the_stores():
    """Half of every control message lost: approvals' answers and
    registrations give up all the time.  The registry stays inside the
    stores at every measurement interval, and copies it stopped listing
    are listed again while still held."""
    config = paper_scenario("zipf", scale=0.05, duration=300.0, seed=7).replace(
        faults=FaultConfig(enabled=True, drop_prob_control=0.5)
    )
    sim, system, workload = build_system(config)
    checked: list[float] = []
    unlisted: list[set] = []

    def check(host, now):
        if checked and checked[-1] == now:
            return
        checked.append(now)
        system.check_invariants()
        unlisted.append({
            (node, obj)
            for node, held in system.hosts.items()
            for obj in held.store.objects()
            if node not in system.replica_hosts(obj)
        })

    system.measurement_observers.append(check)
    system.start()
    attach_generators(
        sim, system, workload, config.node_request_rate, RngFactory(config.seed)
    )
    sim.run(until=config.duration)
    assert len(checked) >= 10
    relisted = {
        (node, obj)
        for before in unlisted
        for node, obj in before
        if obj in system.hosts[node].store and node in system.replica_hosts(obj)
    }
    assert relisted, "no unlisted copy was listed again"
    assert system.rpc.lost_acks > 0 and system.rpc.oneway_dropped > 0
