"""Unit tests for the hosting server: FCFS service, stats, mode."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.host import HostServer
from repro.errors import ProtocolError


#: Preference paths from host 0, by gateway.
PATHS = {0: (0,), 1: (0, 1), 7: (0, 3, 7), 9: (0, 3, 9)}


@pytest.fixture
def host():
    return HostServer(0, ProtocolConfig(), PATHS.__getitem__, capacity=10.0)


def test_fcfs_service_times(host):
    start, completion = host.enqueue(0.0)
    assert (start, completion) == (0.0, 0.1)
    start, completion = host.enqueue(0.0)
    assert (start, completion) == (0.1, 0.2)
    # Arrival after the queue drains starts immediately.
    start, completion = host.enqueue(1.0)
    assert (start, completion) == (1.0, 1.1)


def test_queue_depth(host):
    for _ in range(5):
        host.enqueue(0.0)
    assert host.queue_depth(0.0) == pytest.approx(5.0)
    assert host.queue_depth(10.0) == 0.0


def test_queue_overflow_drops(host):
    # max_queue_delay 30s at capacity 10 = ~300 requests of backlog
    # (floating-point accumulation makes the exact edge request ambiguous).
    admitted = sum(1 for _ in range(400) if host.enqueue(0.0) is not None)
    assert 300 <= admitted <= 301
    assert host.dropped_total == 400 - admitted


def test_record_service_counts_preference_path(host):
    host.record_service(5, 7)
    host.record_service(5, 9)
    counts = host.object_access_counts(5)
    assert counts == {0: 2, 3: 2, 7: 1, 9: 1}
    assert host.total_access_count(5) == 2
    assert host.serviced_total == 2
    # Services after a read add to the counts already expanded.
    host.record_service(5, 7)
    assert host.total_access_count(5) == 3
    assert host.object_access_counts(5) == {0: 3, 3: 3, 7: 2, 9: 1}


def test_reset_access_counts(host):
    host.record_service(5, 1)
    assert host.total_access_count(5) == 1
    host.record_service(5, 1)  # one expanded, one still pending
    host.reset_access_counts(100.0)
    assert host.object_access_counts(5) == {}
    assert host.last_placement_time == 100.0


def test_measurement_feeds_estimator(host):
    for _ in range(40):
        host.record_service(1, 0)
    load = host.measure(20.0)
    assert load == pytest.approx(2.0)
    assert host.measured_load == pytest.approx(2.0)
    assert host.upper_load == pytest.approx(2.0)
    assert host.lower_load == pytest.approx(2.0)


def test_mode_transitions_use_watermarks():
    config = ProtocolConfig(high_watermark=10.0, low_watermark=5.0)
    host = HostServer(0, config, PATHS.__getitem__, capacity=100.0)
    host.estimator.on_measurement(12.0, 0.0)
    host.update_mode()
    assert host.offloading
    # Between the watermarks: mode is sticky.
    host.estimator.on_measurement(7.0, 0.0)
    host.update_mode()
    assert host.offloading
    host.estimator.on_measurement(4.0, 0.0)
    host.update_mode()
    assert not host.offloading
    # Sticky again on the way up.
    host.estimator.on_measurement(7.0, 0.0)
    host.update_mode()
    assert not host.offloading


def test_invalid_capacity():
    with pytest.raises(ProtocolError):
        HostServer(0, ProtocolConfig(), PATHS.__getitem__, capacity=0.0)
    with pytest.raises(ProtocolError):
        HostServer(0, ProtocolConfig(), PATHS.__getitem__, max_queue_delay=0.0)


def test_clear_object_state(host):
    host.record_service(5, 1)
    assert host.total_access_count(5) == 1
    host.record_service(5, 1)  # one expanded, one still pending
    host.clear_object_state(5)
    assert host.object_access_counts(5) == {}
