"""``LatencyHistogram``, the one latency structure, against exact quantiles.

The oracle is what the simulator computed before it kept a histogram:
every sample, sorted, indexed by nearest rank.  A histogram quantile is
the geometric midpoint of the bucket holding that sample, clamped into
the observed range, so it may differ from the oracle by the geometry's
half-bucket, a relative ``sqrt(GROWTH) - 1`` (±2.5 % at 5 % growth);
below the first bucket's edge the error is at most ``BASE / 2``.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.histogram import BASE, GROWTH, LatencyHistogram

#: Positive latencies across the geometry's span, the first bucket included.
samples = st.lists(
    st.floats(min_value=1e-7, max_value=120.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
#: Latencies within a few dozen buckets, so merged halves share buckets.
crowded = st.lists(st.floats(min_value=0.01, max_value=0.05), min_size=1, max_size=200)
quantiles = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def nearest_rank(values: list[float], q: float) -> float:
    """The exact nearest-rank ``q`` quantile: the ``ceil(q·n)``-th smallest."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def recorded(values) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in values:
        histogram.record(value)
    return histogram


def buckets_and_range(histogram: LatencyHistogram) -> tuple:
    payload = histogram.to_dict()
    return payload["buckets"], payload["count"], payload["min"], payload["max"]


@settings(max_examples=200, deadline=None)
@given(values=samples, q=quantiles)
def test_percentile_is_within_half_a_bucket_of_the_exact_quantile(values, q):
    histogram = recorded(values)
    want = nearest_rank(values, q)
    got = histogram.percentile(q)
    assert min(values) <= got <= max(values)
    relative = math.sqrt(GROWTH) - 1.0
    # 1e-9: a sample on a bucket edge may round into its neighbour.
    assert abs(got - want) <= max(relative * want, BASE / 2) * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(values=st.one_of(samples, crowded), cut=st.integers(min_value=0, max_value=200))
def test_two_merged_halves_equal_one_stream(values, cut):
    # Totals are float sums in a different order: compared approximately.
    whole = recorded(values)
    merged = recorded(values[:cut])
    merged.merge(recorded(values[cut:]))
    assert buckets_and_range(merged) == buckets_and_range(whole)
    assert merged.total == pytest.approx(whole.total)


@settings(max_examples=100, deadline=None)
@given(values=st.one_of(st.just([]), samples))
def test_to_dict_round_trips_through_json(values):
    histogram = recorded(values)
    payload = json.loads(json.dumps(histogram.to_dict()))
    again = LatencyHistogram.from_dict(payload)
    assert again.to_dict() == histogram.to_dict()
    for q in (0.0, 0.5, 0.99, 1.0):
        assert again.percentile(q) == histogram.percentile(q)


@pytest.mark.parametrize("q", [-1.0, -1e-12, 1.0 + 1e-12, 50.0, 99.0, math.nan])
def test_a_quantile_outside_zero_to_one_raises(q):
    # 50 and 99: the collector's percentile scale handed to the quantile one.
    histogram = recorded([0.01, 0.02, 0.03])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        histogram.percentile(q)
    with pytest.raises(ValueError):
        LatencyHistogram().percentile(q)


def test_one_sample_is_every_quantile_and_none_reads_zero():
    histogram = recorded([0.0123])
    assert {histogram.percentile(q) for q in (0.0, 0.5, 1.0)} == {0.0123}
    assert LatencyHistogram().percentile(0.5) == 0.0
