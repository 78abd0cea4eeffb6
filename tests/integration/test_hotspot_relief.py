"""End-to-end: the protocol eliminates hot spots (the paper's core claim).

A single host starts with every popular object and is saturated by
requests from its own vicinity — the exact situation where closest-replica
distribution fails (Section 3) and the paper's combined algorithm is
supposed to shed load through replication and offloading.
"""


from repro.core.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import two_cluster_topology
from repro.workloads.base import UniformWorkload, attach_generators
from tests.conftest import make_system, served_log

CONFIG = ProtocolConfig(
    high_watermark=18.0,
    low_watermark=12.0,
    deletion_threshold=0.02,
    replication_threshold=0.12,
    placement_interval=50.0,
    measurement_interval=10.0,
)


class HotSiteWorkload(UniformWorkload):
    """All requests hit the 5 objects initially stored on host 0."""

    def sample(self, gateway, rng):
        return rng.randrange(5)


def build():
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=4, bridge_length=2)
    system = make_system(
        sim, topology, num_objects=5, config=CONFIG, capacity=30.0
    )
    for obj in range(5):
        system.place_initial(obj, 0)
    system.start()
    return sim, system


def test_hot_spot_is_eliminated():
    sim, system = build()
    # 9 nodes x 4 req/s = 36 req/s, all aimed at host 0 (capacity 30).
    generators = attach_generators(
        sim, system, HotSiteWorkload(5), 4.0, RngFactory(7)
    )
    sim.run(until=600.0)
    # Measure the demand split over a late window.
    late = {"host0": 0, "total": 0}
    for service in system.redirectors.services:
        service_orig = service.choose_replica

        def wrapped(gateway, obj, _orig=service_orig):
            host = _orig(gateway, obj)
            late["total"] += 1
            if host == 0:
                late["host0"] += 1
            return host

        service.choose_replica = wrapped
    sim.run(until=700.0)
    for generator in generators:
        generator.stop()

    assert late["total"] > 0
    share = late["host0"] / late["total"]
    # Host 0 no longer serves the overwhelming majority of the demand.
    assert share < 0.6
    # Objects have spread: replicas exist beyond host 0.
    assert system.total_replicas() > 5
    # Host 0's measured load has been pulled to (around) the high
    # watermark rather than pinned at capacity.
    assert system.hosts[0].measured_load <= CONFIG.high_watermark * 1.35
    system.check_invariants()


def test_load_estimates_bracket_actual_load():
    sim, system = build()
    attach_generators(sim, system, HotSiteWorkload(5), 3.0, RngFactory(8))
    violations = []

    def check(host, now):
        # Only meaningful once the estimator has a clean base.
        if host.estimator.dirty:
            return
        if not (
            host.lower_load - 1e-6
            <= host.measured_load
            <= host.upper_load + 1e-6
        ):
            violations.append((now, host.node))

    system.measurement_observers.append(check)
    sim.run(until=400.0)
    assert violations == []


def test_no_requests_are_lost():
    sim, system = build()
    completed = served_log(system)
    generators = attach_generators(
        sim, system, HotSiteWorkload(5), 2.0, RngFactory(9)
    )
    sim.run(until=300.0)
    for generator in generators:
        generator.stop()
    system.stop()  # halt periodic processes so the queue can drain
    sim.run()  # drain in-flight requests
    generated = sum(g.generated for g in generators)
    assert len(completed) == system.latency_histogram.count
    assert len(completed) + system.dropped_requests == generated
    assert system.failed_requests == system.lost_requests == 0
