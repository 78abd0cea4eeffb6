"""Unit tests for the Offload protocol (Figure 5)."""


from repro.core.config import ProtocolConfig
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction, PlacementReason
from tests.conftest import make_system

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
)


def build(num_objects=8):
    sim = Simulator()
    system = make_system(sim, line_topology(5), num_objects=num_objects, config=CONFIG)
    for obj in range(num_objects):
        system.place_initial(obj, 0)
    return system


def saturate(system, *, load=25.0, per_object=None, expect_offloading=True):
    """Put host 0 at the given measured load with per-object breakdowns."""
    host = system.hosts[0]
    host.estimator.on_measurement(load, 0.0)
    host.meter.load = load
    if per_object:
        host.meter.object_loads = dict(per_object)
    host.update_mode()
    if expect_offloading:
        assert host.offloading


def report_idle(system, nodes, load=2.0, at=100.0):
    # Reports are stamped at the offload time: the board now expires
    # reports older than report_expiry_intervals measurement intervals,
    # and these tests model recipients that are *currently* idle.
    for node in nodes:
        system.board.report(node, load, at)
        system.hosts[node].estimator.on_measurement(load, 0.0)


def feed_foreign(system, obj, gateway, count):
    host = system.hosts[0]
    for _ in range(count):
        host.record_service(obj, gateway)


def test_offload_migrates_cold_objects_to_recipient():
    system = build()
    saturate(system, per_object={obj: 3.0 for obj in range(8)})
    report_idle(system, [2, 3, 4])
    # Low unit access rates (below m): offload uses MIGRATE.
    for obj in range(8):
        feed_foreign(system, obj, 4, 1)
    moved = system.run_offload(system.hosts[0], 100.0, 100.0)
    assert moved >= 1
    migrations = [
        e
        for e in system.placement_events
        if e.action is PlacementAction.MIGRATE and e.reason is PlacementReason.LOAD
    ]
    assert migrations
    system.check_invariants()


def test_offload_replicates_hot_objects():
    """Objects above the replication threshold are never load-migrated
    (it might undo a previous geo-replication) — only replicated."""
    system = build(num_objects=2)
    saturate(system, per_object={0: 12.0, 1: 13.0})
    report_idle(system, [4])
    feed_foreign(system, 0, 4, 50)  # 0.5 req/s > m
    feed_foreign(system, 1, 4, 60)
    system.run_offload(system.hosts[0], 100.0, 100.0)
    load_events = [
        e for e in system.placement_events if e.reason is PlacementReason.LOAD
    ]
    assert load_events
    assert all(e.action is PlacementAction.REPLICATE for e in load_events)
    assert 0 in system.hosts[0].store and 1 in system.hosts[0].store


def test_offload_orders_by_foreign_fraction():
    system = build(num_objects=3)
    saturate(system, per_object={0: 2.0, 1: 2.0, 2: 2.0})
    report_idle(system, [4])
    feed_foreign(system, 0, 4, 2)
    feed_foreign(system, 0, 0, 8)  # 20% foreign
    feed_foreign(system, 1, 4, 9)
    feed_foreign(system, 1, 0, 1)  # 90% foreign
    feed_foreign(system, 2, 4, 5)
    feed_foreign(system, 2, 0, 5)  # 50% foreign
    system.run_offload(system.hosts[0], 100.0, 100.0)
    moved_order = [
        e.obj for e in system.placement_events if e.reason is PlacementReason.LOAD
    ]
    assert moved_order[0] == 1


def test_offload_stops_when_recipient_budget_exhausted():
    """The running upper-bound estimate of the recipient must stop the
    bulk transfer before the recipient is buried."""
    system = build(num_objects=8)
    saturate(system, load=25.0, per_object={obj: 3.0 for obj in range(8)})
    report_idle(system, [4], load=8.0)  # close to lw=10
    for obj in range(8):
        feed_foreign(system, obj, 4, 1)
    moved = system.run_offload(system.hosts[0], 100.0, 100.0)
    # First transfer bumps the estimate to 8 + 4*3 = 20 >= lw: stop there.
    assert moved == 1


def test_offload_stops_when_sender_relieved():
    system = build(num_objects=8)
    # Load 12, lw 10: shedding two affinity-1 objects (1.0 load each)
    # brings the lower estimate to 10, which stops the loop well before
    # the recipient's budget (0 + 4.0 per move vs lw=10) is exhausted.
    saturate(
        system,
        load=12.0,
        per_object={obj: 1.0 for obj in range(8)},
        expect_offloading=False,
    )
    report_idle(system, [4], load=0.0)
    for obj in range(8):
        feed_foreign(system, obj, 4, 1)
    system.run_offload(system.hosts[0], 100.0, 100.0)
    moved = [e for e in system.placement_events if e.reason is PlacementReason.LOAD]
    assert len(moved) == 2
    assert system.hosts[0].lower_load <= CONFIG.low_watermark


def test_offload_without_recipient_is_noop():
    system = build()
    saturate(system)
    # Nobody reported below lw.
    for node in range(1, 5):
        system.board.report(node, 15.0, 0.0)
    assert system.run_offload(system.hosts[0], 100.0, 100.0) == 0


def test_offload_revalidates_stale_board_reports():
    """A stale board entry may claim a host is idle; the offload request
    itself must be refused by the host's current upper estimate."""
    system = build()
    saturate(system, per_object={obj: 3.0 for obj in range(8)})
    system.board.report(4, 2.0, 0.0)  # stale: host 4 is actually loaded
    system.hosts[4].estimator.on_measurement(15.0, 0.0)
    assert system.find_offload_recipient(0) is None


def test_placement_round_triggers_offload_when_geo_moves_fail():
    """In offloading mode with no geo candidates, the relief valve runs."""
    system = build(num_objects=2)
    saturate(system, per_object={0: 12.0, 1: 12.0})
    report_idle(system, [4])
    # Purely local demand: no geo migration/replication candidates.
    feed_foreign(system, 0, 0, 50)
    feed_foreign(system, 1, 0, 50)
    system.sim.schedule_at(100.0, lambda: None)
    system.sim.run(until=100.0)
    system.engine.run_host(0, 100.0)
    assert any(
        e.reason is PlacementReason.LOAD for e in system.placement_events
    )
