"""Unit tests for DecidePlacement and ReduceAffinity (Figure 3)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.placement import AffinityOutcome
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction
from tests.conftest import make_system

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
    placement_interval=100.0,
)


@pytest.fixture
def system():
    sim = Simulator()
    system = make_system(
        sim, line_topology(5), num_objects=6, config=CONFIG
    )
    for obj in range(6):
        system.place_initial(obj, 0)
    return system


def feed(system, obj, path_counts, *, host=0):
    """Install access counts: path_counts maps gateway -> request count."""
    server = system.hosts[host]
    for gateway, count in path_counts.items():
        for _ in range(count):
            server.record_service(obj, gateway)


def advance_to(system, t):
    system.sim.schedule_at(t, lambda: None)
    system.sim.run(until=t)


def run_placement(system, *, host=0, at=100.0):
    advance_to(system, at)
    return system.drive(system.engine.run_host(host, at))


def test_cold_object_drops_one_affinity_unit(system):
    # Two affinity units so the drop needs no redirector arbitration.
    system.hosts[0].store.add(3)
    system.redirectors.for_object(3).replica_created(3, 0, 2)
    feed(system, 3, {0: 1})  # 0.01 req/s < u
    run_placement(system)
    assert system.hosts[0].store.affinity(3) == 1


def test_sole_cold_replica_survives(system):
    """The redirector refuses to drop the last replica of an object."""
    feed(system, 3, {0: 1})
    run_placement(system)
    assert 3 in system.hosts[0].store
    system.check_invariants()


def test_migration_to_dominant_path_node(system):
    # 70% of object 1's requests pass through node 4 (> MIGR_RATIO 0.6).
    feed(system, 1, {4: 70, 0: 30})
    run_placement(system)
    assert 1 not in system.hosts[0].store
    assert 1 in system.hosts[4].store
    event = next(e for e in system.placement_events if e.obj == 1)
    assert event.action is PlacementAction.MIGRATE
    system.check_invariants()


def test_migration_prefers_farthest_qualified_candidate(system):
    # Nodes 1..4 all lie on the path to gateway 4; all exceed MIGR_RATIO.
    feed(system, 1, {4: 100})
    run_placement(system)
    assert 1 in system.hosts[4].store  # farthest, not the adjacent node 1


def test_no_migration_below_ratio(system):
    # 50% < MIGR_RATIO: object must stay (rate too low for replication).
    feed(system, 1, {4: 6, 0: 6})  # unit rate 0.12 < m
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert all(e.obj != 1 for e in system.placement_events)


def test_replication_above_threshold(system):
    # Unit rate 100/100s = 1 > m; gateway 4 on 30% of paths (> 1/6) but
    # below MIGR_RATIO, so the object replicates instead of migrating.
    feed(system, 1, {4: 30, 0: 70})
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert 1 in system.hosts[4].store
    event = next(e for e in system.placement_events if e.obj == 1)
    assert event.action is PlacementAction.REPLICATE


def test_no_replication_when_rate_below_m(system):
    # 10 requests in 100s = 0.1 < m = 0.18, candidate share 40% > 1/6.
    feed(system, 1, {4: 4, 0: 6})
    run_placement(system)
    assert all(e.obj != 1 for e in system.placement_events)


def test_migrated_object_not_also_replicated(system):
    feed(system, 1, {4: 100})
    run_placement(system)
    moves = [e for e in system.placement_events if e.obj == 1]
    assert len(moves) == 1
    assert moves[0].action is PlacementAction.MIGRATE


def test_access_counts_reset_after_round(system):
    feed(system, 1, {4: 100})
    run_placement(system)
    assert system.hosts[0].access_counts == {}
    assert system.hosts[0].pending_access == {}
    assert system.hosts[0].last_placement_time == 100.0


def test_candidate_refusal_falls_through_to_closer_candidate(system):
    # All of nodes 1..4 qualify; 4 and 3 are overloaded, so 2 gets it.
    feed(system, 1, {4: 100})
    system.hosts[4].estimator.on_measurement(15.0, 0.0)
    system.hosts[3].estimator.on_measurement(15.0, 0.0)
    run_placement(system)
    assert 1 in system.hosts[2].store


def test_reduce_affinity_outcomes(system):
    engine = system.engine
    system.hosts[0].store.add(2)
    system.redirectors.for_object(2).replica_created(2, 0, 2)
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.REDUCED
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.REFUSED
    # With a second replica elsewhere, the drop is approved.
    system.hosts[3].store.add(2)
    system.redirectors.for_object(2).replica_created(2, 3, 1)
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.DROPPED
    assert 2 not in system.hosts[0].store
    system.check_invariants()


def test_zero_elapsed_round_is_noop(system):
    assert system.drive(system.engine.run_host(0, 0.0)) is False


def test_own_node_never_a_candidate(system):
    """cnt(s, x)/cnt(s, x) = 1 > MIGR_RATIO: the host itself must be
    excluded from candidate lists or every object would 'migrate' to
    where it already is."""
    feed(system, 1, {0: 100})  # all requests local to host 0
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert all(e.obj != 1 for e in system.placement_events)
