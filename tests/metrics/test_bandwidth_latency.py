"""Tests for the bandwidth and latency collectors against a live system."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.bandwidth import BandwidthCollector
from repro.metrics.latency import LatencyCollector
from repro.network.message import MessageClass
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system


@pytest.fixture
def setup():
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=4)
    system.initialize_round_robin()
    bandwidth = BandwidthCollector(system.network, bucket=10.0)
    latency = LatencyCollector(system, bucket=10.0)
    return sim, system, bandwidth, latency


def test_response_byte_hops_counted(setup):
    sim, system, bandwidth, _ = setup
    system.submit_request(gateway=3, obj=0)  # 3 hops back
    sim.run()
    assert bandwidth.class_series(MessageClass.RESPONSE).values[0] == (
        system.object_size * 3
    )
    assert bandwidth.total_byte_hops() > system.object_size * 3  # + requests


def test_payload_excludes_overhead_classes(setup):
    sim, system, bandwidth, _ = setup
    system.network.account(0, 3, 1000, MessageClass.RELOCATION)
    system.network.account(0, 3, 100, MessageClass.CONTROL)
    payload = bandwidth.payload_series()
    overhead = bandwidth.overhead_series()
    assert sum(payload.values) == 0.0
    assert sum(overhead.values) == 3300.0
    assert bandwidth.overhead_fraction() == pytest.approx(1.0)


def test_overhead_fraction_series(setup):
    sim, system, bandwidth, _ = setup
    system.network.account(0, 3, 1000, MessageClass.RESPONSE)
    system.network.account(0, 3, 1000, MessageClass.RELOCATION)
    series = bandwidth.overhead_fraction_series()
    assert series.values[0] == pytest.approx(0.5)


def test_zero_hop_traffic_not_counted(setup):
    sim, system, bandwidth, _ = setup
    system.network.account(2, 2, 1000, MessageClass.RESPONSE)
    assert bandwidth.total_byte_hops() == 0.0


@pytest.mark.parametrize("width", [0.1, 0.3])
def test_series_sum_to_totals_at_non_integer_bucket_widths(width):
    """Regression: the merged series walked ``t += width`` and looked the
    float up among ``index * width`` keys, so at widths like 0.1 half the
    traffic (buckets 0.6 … 1.1 of twelve) read 0.0."""
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=4)
    bandwidth = BandwidthCollector(system.network, bucket=width)
    account = system.network.account
    for index in range(12):
        at = index * 0.1 + 0.05
        sim.schedule_at(at, account, 0, 2, 100, MessageClass.RESPONSE)
        if index % 3 == 0:
            sim.schedule_at(at, account, 0, 3, 10, MessageClass.CONTROL)
    sim.run()
    total = bandwidth.total_series()
    payload = bandwidth.payload_series()
    overhead = bandwidth.overhead_series()
    assert bandwidth.total_byte_hops() == 12 * 200 + 4 * 30
    assert sum(total.values) == bandwidth.total_byte_hops()
    assert sum(overhead.values) == bandwidth.overhead_byte_hops() == 4 * 30
    by_time = dict(total.items())
    merged = dict.fromkeys(by_time, 0.0)
    for series in (payload, overhead):
        for time, value in series.items():
            merged[time] += value
    assert merged == by_time


def test_second_collector_shares_the_meter(setup):
    sim, system, bandwidth, _ = setup
    system.network.account(0, 3, 1000, MessageClass.RESPONSE)
    again = BandwidthCollector(system.network, bucket=10.0)
    assert again.total_byte_hops() == bandwidth.total_byte_hops() == 3000.0


def test_latency_statistics(setup):
    sim, system, _, latency = setup
    for _ in range(5):
        system.submit_request(gateway=3, obj=0)
    sim.run()
    assert latency.completed == 5
    assert latency.mean_latency() > 0
    assert latency.max_latency >= latency.mean_latency()
    assert latency.mean_response_hops() == 3.0
    assert latency.percentile(0) <= latency.percentile(100)


def test_latency_series_bucketing(setup):
    sim, system, _, latency = setup
    system.submit_request(gateway=1, obj=0)
    sim.run()
    series = latency.mean_latency_series()
    assert len(series) == 1
    assert series.values[0] > 0


def test_dropped_requests_tracked_separately(setup):
    sim, system, _, latency = setup
    system.hosts[0].max_queue_delay = 0.001
    for _ in range(5):
        system.submit_request(gateway=0, obj=0)
    sim.run()
    assert latency.completed == 1
    assert latency.dropped == 4
    assert latency.drop_rate() == pytest.approx(0.8)
    assert sum(latency.dropped_series().values) == 4


def test_percentile_requires_samples(setup):
    sim, system, _, latency = setup
    with pytest.raises(ConfigurationError):
        latency.percentile(50)
    system.submit_request(gateway=1, obj=0)
    sim.run()
    with pytest.raises(ConfigurationError):
        latency.percentile(101)


def test_no_requests_stats_raise(setup):
    _, _, _, latency = setup
    with pytest.raises(ConfigurationError):
        latency.mean_latency()
