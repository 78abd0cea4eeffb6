"""Tests for the footnote-2 relocation freeze.

"When frequent object relocations make most of measurement intervals
contain a relocation event, a host can always periodically halt
relocations to take fresh load measurements."
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    relocation_freeze_intervals=2,
    measurement_interval=10.0,
)


@pytest.fixture
def system():
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=4, config=CONFIG)
    system.initialize_round_robin()
    return system


def test_dirty_interval_counting(system):
    host = system.hosts[0]
    host.measure(10.0)
    assert host.dirty_intervals == 0
    host.estimator.note_acquired(1.0, now=15.0)
    host.measure(20.0)  # interval [10,20] contains the relocation: dirty
    assert host.dirty_intervals == 1
    host.estimator.note_acquired(1.0, now=25.0)
    host.measure(30.0)
    assert host.dirty_intervals == 2
    assert host.relocations_frozen
    host.measure(40.0)  # clean interval: counter resets
    assert host.dirty_intervals == 0
    assert not host.relocations_frozen


def test_frozen_host_skips_placement_round(system):
    host = system.hosts[0]
    # Give the host a hot object that would otherwise replicate.
    for _ in range(100):
        host.record_service(0, 3)
    host.meter.object_loads = {0: 1.0}
    host.dirty_intervals = 2
    system.sim.schedule_at(100.0, lambda: None)
    system.sim.run(until=100.0)
    assert system.drive(system.engine.run_host(0, 100.0)) is False
    assert system.placement_events == []
    # The observation window was preserved, not reset.
    assert host.total_access_count(0) == 100
    # Once clean, the same state relocates immediately.
    host.dirty_intervals = 0
    assert system.drive(system.engine.run_host(0, 100.0 + 1e-9)) is True
    assert system.placement_events


def test_freeze_disabled_by_default():
    config = ProtocolConfig()
    assert config.relocation_freeze_intervals is None
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=2, config=config)
    system.initialize_round_robin()
    host = system.hosts[0]
    host.dirty_intervals = 99
    assert not host.relocations_frozen


def test_freeze_threshold_validation():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(relocation_freeze_intervals=0)
