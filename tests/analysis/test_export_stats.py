"""Tests for cross-seed statistics."""

import pytest

from repro.analysis.stats import across_seeds, summarize
from repro.errors import ConfigurationError
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import run_scenario


def test_summarize_basics():
    summary = summarize([10.0, 12.0, 11.0, 13.0])
    assert summary.mean == pytest.approx(11.5)
    assert summary.stdev == pytest.approx(1.29099, rel=1e-4)
    assert summary.low < summary.mean < summary.high
    # 95% t-interval with n=4: t=3.182, ci = 3.182*stdev/2.
    assert summary.ci95 == pytest.approx(3.182 * summary.stdev / 2, rel=1e-4)


def test_summarize_single_value():
    summary = summarize([5.0])
    assert summary.mean == 5.0
    assert summary.ci95 == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ConfigurationError):
        summarize([])


def test_across_seeds_runs_and_bounds():
    config = paper_scenario("uniform", scale=0.05, duration=150.0).replace(
        bucket=30.0
    )
    summary = across_seeds(
        config,
        lambda result: result.latency.mean_latency(),
        seeds=[1, 2, 3],
    )
    assert len(summary.values) == 3
    assert summary.low <= summary.mean <= summary.high
    # Different seeds produce different (but similar) latencies.
    assert len(set(summary.values)) > 1
    assert summary.ci95 / summary.mean < 0.5


def test_across_seeds_requires_seeds():
    config = paper_scenario("uniform", scale=0.05, duration=120.0)
    with pytest.raises(ConfigurationError):
        across_seeds(config, lambda r: 0.0, seeds=[])
