"""Tests for scenario configuration, scaling and the paper presets."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import (
    WORKLOAD_NAMES,
    paper_parameters,
    paper_scenario,
)


def test_paper_parameters_match_table1():
    config = paper_parameters()
    assert config.num_objects == 10_000
    assert config.object_size == 12 * 1024
    assert config.node_request_rate == 40.0
    assert config.capacity == 200.0
    assert config.hop_delay == 0.010
    assert config.bandwidth == 350_000.0
    assert config.protocol.placement_interval == 100.0
    assert config.protocol.measurement_interval == 20.0
    assert (config.protocol.low_watermark, config.protocol.high_watermark) == (
        80.0,
        90.0,
    )
    assert config.protocol.deletion_threshold == 0.03
    assert config.protocol.replication_threshold == pytest.approx(0.18)


def test_high_load_variant_uses_50_40():
    config = paper_parameters(high_load=True)
    assert (config.protocol.low_watermark, config.protocol.high_watermark) == (
        40.0,
        50.0,
    )


def test_scaled_preserves_load_ratios():
    config = paper_parameters().scaled(0.25)
    full = paper_parameters()
    assert config.num_objects == full.num_objects  # namespace untouched
    for scaled_value, full_value in [
        (config.node_request_rate, full.node_request_rate),
        (config.capacity, full.capacity),
        (config.protocol.high_watermark, full.protocol.high_watermark),
        (config.protocol.low_watermark, full.protocol.low_watermark),
        (config.protocol.deletion_threshold, full.protocol.deletion_threshold),
        (
            config.protocol.replication_threshold,
            full.protocol.replication_threshold,
        ),
    ]:
        assert scaled_value == pytest.approx(0.25 * full_value)
    assert config.load_scale == 0.25
    # Dimensionless ratios are exactly preserved.
    assert config.capacity / config.protocol.high_watermark == pytest.approx(
        full.capacity / full.protocol.high_watermark
    )


def test_scaled_identity():
    config = paper_parameters()
    assert config.scaled(1.0) is config


def test_scaled_composes():
    config = paper_parameters().scaled(0.5).scaled(0.5)
    assert config.load_scale == pytest.approx(0.25)
    assert config.node_request_rate == pytest.approx(10.0)


def test_scaled_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        paper_parameters().scaled(0.0)


def test_paper_scenario_grid():
    for workload in WORKLOAD_NAMES:
        config = paper_scenario(workload, scale=0.5)
        assert config.workload == workload
        assert config.dynamic
    static = paper_scenario("zipf", scale=0.5, dynamic=False)
    assert not static.dynamic
    assert static.name.endswith("static")


def test_paper_scenario_rejects_unknown_workload():
    with pytest.raises(ConfigurationError):
        paper_scenario("nope")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(duration=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(num_objects=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(distribution="sticky")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(bucket=0)
    with pytest.raises(ConfigurationError, match="bandwidth"):
        ScenarioConfig(bandwidth=0)
    with pytest.raises(ConfigurationError, match="hop delay"):
        ScenarioConfig(hop_delay=-1)
    with pytest.raises(ConfigurationError, match="object size"):
        ScenarioConfig(object_size=0)
    with pytest.raises(ConfigurationError, match="load scale"):
        ScenarioConfig(load_scale=0)
    ScenarioConfig(hop_delay=0)  # a zero-delay backbone is allowed


def test_replace_returns_modified_copy():
    config = ScenarioConfig()
    other = config.replace(seed=9)
    assert other.seed == 9
    assert config.seed == 1
