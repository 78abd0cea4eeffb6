"""Tests for heterogeneous hosts and storage limits (paper extensions).

Section 2: "Heterogeneity could be introduced by incorporating into the
protocol weights corresponding to relative power of hosts", and the load
metric "may be represented by a vector ... notably computational load and
storage utilization".  A host's weight scales its capacity and both
watermarks; a storage limit makes it refuse new copies when full.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.create_obj import handle_create_obj
from repro.core.host import HostServer
from repro.core.offload import find_recipient
from repro.errors import ProtocolError
from repro.network.transport import Network
from repro.core.protocol import HostingSystem
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction, PlacementReason

CONFIG = ProtocolConfig(high_watermark=20.0, low_watermark=10.0)


class NoPaths(dict):
    """Preference paths for bare hosts whose access counts are never read."""

    def __missing__(self, gateway):
        raise AssertionError("no test here expands access counts")


no_paths = NoPaths()


def build(weights=None, limits=None):
    sim = Simulator()
    network = Network(sim, RoutingDatabase(line_topology(4)))
    system = HostingSystem(
        sim,
        network,
        CONFIG,
        num_objects=6,
        capacity=100.0,
        host_weights=weights,
        storage_limits=limits,
    )
    for obj in range(6):
        system.place_initial(obj, 0)
    return system


def test_weight_scales_watermarks_and_capacity():
    system = build(weights={1: 2.0, 2: 0.5})
    assert system.hosts[1].high_watermark == 40.0
    assert system.hosts[1].low_watermark == 20.0
    assert system.hosts[1].service_time == pytest.approx(1 / 200.0)
    assert system.hosts[2].high_watermark == 10.0
    assert system.hosts[2].low_watermark == 5.0
    assert system.hosts[2].service_time == pytest.approx(1 / 50.0)
    assert system.hosts[3].high_watermark == 20.0  # default weight 1


def test_powerful_host_accepts_what_weak_host_refuses():
    system = build(weights={1: 2.0, 2: 0.5})
    for node in (1, 2):
        system.hosts[node].estimator.on_measurement(8.0, 0.0)
    # Load 8 is above the weak host's lw (5) but below the strong one's (20).
    assert not handle_create_obj(
        system, 0, 2, PlacementAction.REPLICATE, 0, 1.0, PlacementReason.GEO
    )
    assert handle_create_obj(
        system, 0, 1, PlacementAction.REPLICATE, 0, 1.0, PlacementReason.GEO
    )


def test_weighted_migration_headroom():
    system = build(weights={1: 2.0})
    system.hosts[1].estimator.on_measurement(15.0, 0.0)
    # 15 + 4*7 = 43 exceeds hw=40: migration refused, replication fine.
    assert not handle_create_obj(
        system, 0, 1, PlacementAction.MIGRATE, 0, 7.0, PlacementReason.LOAD
    )
    assert handle_create_obj(
        system, 0, 1, PlacementAction.REPLICATE, 0, 7.0, PlacementReason.LOAD
    )


def test_update_mode_uses_weighted_watermarks():
    host = HostServer(0, CONFIG, no_paths, capacity=100.0, weight=2.0)
    host.estimator.on_measurement(30.0, 0.0)  # below hw*2 = 40
    host.update_mode()
    assert not host.offloading
    host.estimator.on_measurement(45.0, 0.0)
    host.update_mode()
    assert host.offloading


def test_storage_limit_refuses_new_copies():
    system = build(limits={3: 1})
    assert handle_create_obj(
        system, 0, 3, PlacementAction.REPLICATE, 0, 0.1, PlacementReason.GEO
    )
    # The store is full: another object's replica is refused...
    assert not handle_create_obj(
        system, 0, 3, PlacementAction.REPLICATE, 1, 0.1, PlacementReason.GEO
    )
    # ...but an affinity increment on the stored object still fits.
    assert handle_create_obj(
        system, 0, 3, PlacementAction.REPLICATE, 0, 0.1, PlacementReason.GEO
    )
    assert system.hosts[3].store.affinity(0) == 2
    system.check_invariants()


def test_has_storage_room_semantics():
    host = HostServer(0, CONFIG, no_paths, storage_limit=2)
    host.store.add(1)
    host.store.add(2)
    assert not host.has_storage_room(3)
    assert host.has_storage_room(1)  # already stored
    unlimited = HostServer(1, CONFIG, no_paths)
    assert unlimited.has_storage_room(99)


def test_invalid_weight_and_limit():
    with pytest.raises(ProtocolError):
        HostServer(0, CONFIG, no_paths, weight=0.0)
    with pytest.raises(ProtocolError):
        HostServer(0, CONFIG, no_paths, storage_limit=0)


def test_offload_recipient_respects_per_host_watermarks():
    system = build(weights={2: 0.5, 3: 2.0})
    # Both report load 8; host 2's lw is 5 (too loaded), host 3's is 20.
    system.board.report(2, 8.0, 0.0)
    system.board.report(3, 8.0, 0.0)
    system.hosts[2].estimator.on_measurement(8.0, 0.0)
    system.hosts[3].estimator.on_measurement(8.0, 0.0)
    assert system.drive(find_recipient(0, 0.0))[0] == 3
