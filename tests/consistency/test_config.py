"""Validation tests for the consistency-plane configuration block."""

import pytest

from repro.consistency.config import ConsistencyConfig
from repro.errors import ConfigurationError


def test_defaults_mean_plane_off():
    config = ConsistencyConfig()
    assert not config.enabled
    assert config.category_mix == (1.0, 0.0, 0.0)
    assert config.epidemic_interval is None
    assert config.anti_entropy_interval is None


@pytest.mark.parametrize(
    "changes",
    [
        {"write_rate": 2.0},
        {"category_mix": (0.8, 0.1, 0.1)},
        {"epidemic_interval": 30.0},
        {"anti_entropy_interval": 10.0},
    ],
)
def test_any_active_knob_enables_the_plane(changes):
    assert ConsistencyConfig(**changes).enabled


def test_category_mix_accepts_colon_string():
    """CLI/sweep ergonomics: "a:b:c" parses to the normalized tuple."""
    config = ConsistencyConfig(category_mix="0.8:0.15:0.05")
    assert config.category_mix == (0.8, 0.15, 0.05)
    assert config.enabled


@pytest.mark.parametrize(
    "mix",
    [
        "0.5:0.5",  # wrong arity (string)
        (0.5, 0.5),  # wrong arity (tuple)
        "a:b:c",  # non-numeric
        (0.5, 0.6, -0.1),  # negative entry
        (0.5, 0.4, 0.2),  # does not sum to 1
    ],
)
def test_bad_category_mix_rejected(mix):
    with pytest.raises(ConfigurationError):
        ConsistencyConfig(category_mix=mix)


@pytest.mark.parametrize(
    "changes",
    [
        {"write_rate": -1.0},
        {"epidemic_interval": -1.0},
        {"anti_entropy_interval": -5.0},
        {"non_commuting_replica_limit": 0},
    ],
)
def test_bad_scalars_rejected(changes):
    with pytest.raises(ConfigurationError):
        ConsistencyConfig(**changes)


def test_zero_interval_means_off():
    """Sweep axes cannot spell None, so 0 is the "off" grid point."""
    config = ConsistencyConfig(
        epidemic_interval=0, anti_entropy_interval=0.0
    )
    assert config.epidemic_interval is None
    assert config.anti_entropy_interval is None
    assert not config.enabled


def test_replace_revalidates():
    config = ConsistencyConfig(write_rate=1.0)
    assert config.replace(write_rate=3.0).write_rate == 3.0
    with pytest.raises(ConfigurationError):
        config.replace(epidemic_interval=-1.0)
