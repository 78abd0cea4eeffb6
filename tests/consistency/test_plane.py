"""Tests for the consistency plane: writes, staleness, read-repair,
category-2 conservation, and the category-3 CreateObj refusal path."""

import random

import pytest

from repro.consistency.categories import Category
from repro.consistency.config import ConsistencyConfig
from repro.consistency.plane import ConsistencyPlane
from repro.core.create_obj import handle_create_obj
from repro.errors import ConsistencyError
from repro.failures.injector import FailureInjector
from repro.network.faults import FaultConfig, FaultPlane
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction, PlacementReason
from tests.conftest import make_system

QUIET_FAULTS = FaultConfig(enabled=True, detection=False, repair=False)


def build(consistency, faults=QUIET_FAULTS, num_objects=8, seed=17):
    sim = Simulator()
    plane = FaultPlane(faults, random.Random(seed))
    system = make_system(
        sim, line_topology(4), num_objects=num_objects, fault_plane=plane
    )
    cplane = ConsistencyPlane(system, consistency, rng=random.Random(1))
    system.consistency_plane = cplane
    system.initialize_round_robin()
    return sim, system, cplane


def add_replica(system, obj, host):
    system.hosts[host].store.add(obj)
    system.redirectors.for_object(obj).replica_created(obj, host, 1)


def served(obj, server):
    """A delivered response, as the served observers are called with it:
    ``(obj, gateway, server, issued_at, response_hops)``."""
    return obj, 0, server, 0.0, server


def test_immediate_write_propagates_with_zero_length_window():
    sim, system, cplane = build(ConsistencyConfig())
    add_replica(system, 0, 2)
    system.start()
    version = cplane.provider_write(0)
    assert version == 1
    assert cplane.writes == 1
    assert cplane.manager.stale_replicas(0) == []
    tracker = cplane.tracker
    # The write opened a window (replica behind) and propagation closed
    # it at the same timestamp.
    assert tracker.windows_opened == 1
    assert tracker.windows_closed == 1
    assert tracker.divergence_seconds == 0.0
    system.stop()


def test_epidemic_write_stays_pending_until_flush():
    sim, system, cplane = build(ConsistencyConfig(epidemic_interval=30.0))
    add_replica(system, 0, 2)
    system.start()
    cplane.provider_write(0)
    assert cplane.batcher.pending == 1
    assert cplane.manager.stale_replicas(0) == [2]
    sim.run(until=31.0)
    assert cplane.batcher.flushes == 1
    assert cplane.manager.stale_replicas(0) == []
    assert cplane.tracker.windows_closed == 1
    system.stop()


def test_primary_crash_loses_queued_epidemic_propagation():
    sim, system, cplane = build(ConsistencyConfig(epidemic_interval=30.0))
    add_replica(system, 0, 2)
    system.start()
    cplane.provider_write(0)  # queued on primary host 0
    FailureInjector(sim, system).fail(0)
    assert cplane.epidemic_pending_lost == 1
    assert cplane.batcher.pending == 0
    sim.run(until=31.0)
    # The flush had nothing left to push: the replica stays stale.
    assert cplane.manager.stale_replicas(0) == [2]
    system.stop()


def test_stale_read_triggers_read_repair():
    sim, system, cplane = build(ConsistencyConfig())
    add_replica(system, 0, 2)
    system.start()
    injector = FailureInjector(sim, system)
    injector.fail(2)
    cplane.provider_write(0)  # push fails: replica 2 left stale
    injector.recover(2)
    assert cplane.manager.stale_replicas(0) == [2]
    cplane._on_served(*served(0, 2))
    assert cplane.tracker.stale_reads == 1
    assert cplane.read_repair_attempts == 1
    assert cplane.read_repairs == 1
    assert cplane.manager.stale_replicas(0) == []
    system.stop()


def test_failed_read_repair_suppressed_until_anti_entropy_clears_it():
    sim, system, cplane = build(
        ConsistencyConfig(anti_entropy_interval=10.0)
    )
    add_replica(system, 0, 2)
    fault_plane = system.fault_plane
    fault_plane.schedule_partition(sim, [2], at=1.0, duration=24.0)
    system.start()
    sim.run(until=2.0)
    cplane.provider_write(0)  # push dropped at the partition boundary
    assert cplane.manager.stale_replicas(0) == [2]
    # Host 2 still serves its side of the partition: stale reads there
    # attempt one repair, fail, and are then suppressed.
    cplane._on_served(*served(0, 2))
    cplane._on_served(*served(0, 2))
    assert cplane.tracker.stale_reads == 2
    assert cplane.read_repair_attempts == 1
    assert cplane.read_repairs == 0
    sim.run(until=31.0)  # heal at t=25, anti-entropy round at t=30
    assert cplane.manager.stale_replicas(0) == []
    assert cplane.antientropy.repushes == 1
    # Anti-entropy also lifted the suppression for future repairs.
    cplane._on_served(*served(0, 2))
    assert cplane.read_repair_attempts == 1  # current replica: no attempt
    system.stop()


def test_read_repair_waits_out_the_epidemic_flush_window():
    sim, system, cplane = build(ConsistencyConfig(epidemic_interval=30.0))
    add_replica(system, 0, 2)
    system.start()
    cplane.provider_write(0)
    # Inside the flush window staleness is by design: no repair.
    cplane._on_served(*served(0, 2))
    assert cplane.tracker.stale_reads == 1
    assert cplane.read_repair_attempts == 0
    system.stop()


def test_category2_conservation_across_crash_and_recovery():
    sim, system, cplane = build(
        ConsistencyConfig(category_mix=(0.0, 1.0, 0.0))
    )
    system.start()
    assert cplane.has_category2
    assert cplane.policy.category(1) is Category.COMMUTING
    for _ in range(3):
        cplane._on_served(*served(1, 1))
    cplane._on_served(*served(3, 3))
    assert cplane.category2_served == 4
    # Host 1 crashes with its tallies unmerged: they are lost for good.
    injector = FailureInjector(sim, system)
    injector.fail(1)
    assert cplane.category2_counts_lost == 3
    injector.recover(1)
    # Recovery re-aggregates and the conservation invariant holds:
    # 0 merged + 1 pending (host 3) + 3 lost == 4 served.
    assert cplane.category2_reaggregations == 1
    # The survivor's tally ships to the board on the merge cadence.
    sim.run(until=system.config.measurement_interval + 1.0)
    assert cplane.category2_merges == 1
    assert cplane.category2_merged_total() == 1
    system.stop()


def test_category2_conservation_violation_is_loud():
    sim, system, cplane = build(
        ConsistencyConfig(category_mix=(0.0, 1.0, 0.0))
    )
    system.start()
    cplane._on_served(*served(1, 1))
    cplane.category2_served = 7  # corrupt the ledger
    with pytest.raises(ConsistencyError):
        cplane._reaggregate()
    system.stop()


def test_double_start_rejected_and_stop_idempotent():
    sim, system, cplane = build(ConsistencyConfig(anti_entropy_interval=5.0))
    system.start()
    with pytest.raises(ConsistencyError):
        cplane.start()
    system.stop()
    cplane.stop()  # idempotent


# ----------------------------------------------------------------------
# Category-3 replica limits through the full CreateObj path under faults
# ----------------------------------------------------------------------


def all_category3():
    return ConsistencyConfig(category_mix=(0.0, 0.0, 1.0))


def test_category3_replication_refused_no_half_created_replica():
    sim, system, cplane = build(all_category3())
    system.start()
    obj = 1  # sole replica on host 1; limit is 1 (migrate-only)
    assert system.consistency_policy is cplane.policy
    service = system.redirectors.for_object(obj)
    before = service.replica_hosts(obj)
    accepted = handle_create_obj(
        system, 1, 3, PlacementAction.REPLICATE, obj, 1.0, PlacementReason.LOAD
    )
    assert accepted is False
    # Nothing leaked anywhere: registry, candidate store, version map.
    assert service.replica_hosts(obj) == before
    assert obj not in system.hosts[3].store
    assert cplane.manager.version_or_default(obj, 3) == 0
    system.check_invariants()
    system.stop()


def test_category3_refusal_when_rpc_times_out():
    sim, system, cplane = build(all_category3())
    system.fault_plane.schedule_partition(sim, [3], at=0.5, duration=50.0)
    system.start()
    sim.run(until=1.0)
    obj = 1
    accepted = handle_create_obj(
        system, 1, 3, PlacementAction.REPLICATE, obj, 1.0, PlacementReason.LOAD
    )
    # The request never crossed the partition: refused with no state
    # change on either side.
    assert accepted is False
    assert obj not in system.hosts[3].store
    assert system.redirectors.for_object(obj).replica_hosts(obj) == [1]
    system.check_invariants()
    system.stop()


def test_category3_migration_still_allowed():
    sim, system, cplane = build(all_category3())
    system.start()
    obj = 1
    accepted = handle_create_obj(
        system, 1, 3, PlacementAction.MIGRATE, obj, 1.0, PlacementReason.LOAD
    )
    # Migrations never grow the replica count, so the limit does not
    # apply; the candidate accepted and registered its copy.
    assert accepted is True
    assert obj in system.hosts[3].store
    assert 3 in system.redirectors.for_object(obj).replica_hosts(obj)
    system.stop()
