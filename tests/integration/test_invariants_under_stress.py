"""Stress the full protocol and check every structural invariant holds.

Runs a churn-heavy scenario (aggressive thresholds, shifting demand,
overload) and asserts after every placement interval that the registry
subset invariant, affinity agreement, last-replica availability and
request-conservation all hold.
"""

from repro.core.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngFactory
from repro.topology.generators import grid_topology
from repro.workloads.base import attach_generators
from repro.workloads.zipf import ZipfWorkload
from tests.conftest import make_system, served_log

CONFIG = ProtocolConfig(
    high_watermark=10.0,
    low_watermark=6.0,
    deletion_threshold=0.05,
    replication_threshold=0.3,
    placement_interval=40.0,
    measurement_interval=10.0,
)


def test_invariants_hold_under_churn():
    sim = Simulator()
    topology = grid_topology(3, 3)
    system = make_system(sim, topology, num_objects=30, config=CONFIG, capacity=15.0)
    system.initialize_round_robin()
    system.start()
    generators = attach_generators(
        sim, system, ZipfWorkload(30), 3.0, RngFactory(33), poisson=True
    )
    checks = {"count": 0}

    def verify(now):
        system.check_invariants()
        checks["count"] += 1
        # The redirector never assigns requests to non-existent replicas:
        # rerouted requests are the only in-flight casualties allowed and
        # they must all complete.
        for obj in range(30):
            assert len(system.replica_hosts(obj)) >= 1

    checker = PeriodicProcess(sim, CONFIG.placement_interval, verify)
    completed = served_log(system)
    sim.run(until=800.0)
    for generator in generators:
        generator.stop()
    checker.stop()
    system.stop()  # halt periodic processes so the queue can drain
    sim.run()

    assert checks["count"] == 20
    generated = sum(g.generated for g in generators)
    assert len(completed) + system.dropped_requests == generated
    assert system.failed_requests == system.lost_requests == 0
    # Churn actually happened (otherwise this test proves nothing).
    assert len(system.placement_events) > 20


def test_affinities_stay_positive_everywhere():
    sim = Simulator()
    topology = grid_topology(3, 3)
    system = make_system(sim, topology, num_objects=20, config=CONFIG, capacity=15.0)
    system.initialize_round_robin()
    system.start()
    generators = attach_generators(
        sim, system, ZipfWorkload(20), 2.0, RngFactory(34)
    )
    sim.run(until=500.0)
    for generator in generators:
        generator.stop()
    for node, host in system.hosts.items():
        for obj in host.store.objects():
            assert host.store.affinity(obj) >= 1
    for obj in range(20):
        redirector = system.redirectors.for_object(obj)
        for host in redirector.replica_hosts(obj):
            assert redirector.affinity(obj, host) >= 1
