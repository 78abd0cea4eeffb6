"""End-to-end: regional demand concentrates replicas regionally.

The paper's regional workload gets its 90% bandwidth win because "a
document is popular only in a particular region, which allows all the
replicas of the document to be concentrated in that region".  We verify
that geometry emerges, on a small two-cluster world for speed.
"""

import random

from repro.core.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import two_cluster_topology
from repro.topology.regions import Region
from repro.workloads.base import Workload, attach_generators
from tests.conftest import make_system

CONFIG = ProtocolConfig(
    high_watermark=50.0,
    low_watermark=40.0,
    deletion_threshold=0.02,
    replication_threshold=0.12,
    placement_interval=50.0,
    measurement_interval=10.0,
)

#: Objects 0-4 are preferred by cluster A (nodes 0-3), 5-9 by cluster B.
CLUSTER_A = set(range(4))


class TwoRegionWorkload(Workload):
    def __init__(self) -> None:
        super().__init__(10)

    def sample(self, gateway: int, rng: random.Random) -> int:
        own = gateway in CLUSTER_A
        if rng.random() < 0.9:
            return rng.randrange(0, 5) if own else rng.randrange(5, 10)
        return rng.randrange(10)


def test_replicas_concentrate_in_their_region():
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    system = make_system(sim, topology, num_objects=10, config=CONFIG)
    # Adversarial start: every object begins in the *wrong* cluster.
    for obj in range(5):
        system.place_initial(obj, 7 - (obj % 2))  # cluster B hosts
    for obj in range(5, 10):
        system.place_initial(obj, obj % 4)  # cluster A hosts
    system.start()
    generators = attach_generators(
        sim, system, TwoRegionWorkload(), 5.0, RngFactory(12)
    )
    hops = []
    system.served_observers.append(
        lambda obj, gateway, server, issued_at, response_hops: hops.append(
            response_hops
        )
        if sim.now > 500
        else None
    )
    sim.run(until=650.0)
    for generator in generators:
        generator.stop()

    cluster_a_nodes = set(topology.nodes_in_region(Region.WESTERN_NA))
    cluster_b_nodes = set(topology.nodes_in_region(Region.EUROPE))
    # Each cluster's preferred objects are now hosted in that cluster.
    for obj in range(5):
        assert any(h in cluster_a_nodes for h in system.replica_hosts(obj)), obj
    for obj in range(5, 10):
        assert any(h in cluster_b_nodes for h in system.replica_hosts(obj)), obj
    # And the mean response distance collapsed well below the bridge
    # length (objects would otherwise cross it 90% of the time).
    assert sum(hops) / len(hops) < 2.0
    system.check_invariants()
