"""Generic time-series containers used by all collectors."""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigurationError
from repro.types import Time


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: list[Time] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: Time, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ConfigurationError("time series samples must be time-ordered")
        self.times.append(time)
        self.values.append(value)

    def items(self) -> Iterable[tuple[Time, float]]:
        return zip(self.times, self.values)

    def max(self) -> float:
        if not self.values:
            raise ConfigurationError("max() of an empty time series")
        return max(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ConfigurationError("mean() of an empty time series")
        return sum(self.values) / len(self.values)

    def mean_tail(self, fraction: float = 0.25) -> float:
        """Mean of the last ``fraction`` of samples (equilibrium estimate)."""
        if not self.values:
            raise ConfigurationError("mean_tail() of an empty time series")
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, math.ceil(len(self.values) * fraction))
        tail = self.values[-count:]
        return sum(tail) / len(tail)

    def after(self, time: Time) -> "TimeSeries":
        """Samples at or after ``time`` (new series)."""
        out = TimeSeries()
        for t, v in self.items():
            if t >= time:
                out.append(t, v)
        return out


class BucketedSeries:
    """Accumulates values into fixed-width time buckets.

    Bucket ``k`` covers ``[k * width, (k+1) * width)``.  ``add`` may be
    called in any time order (events inside one simulated instant arrive
    unordered); queries finalise the layout lazily.
    """

    __slots__ = ("width", "_sums", "_counts")

    def __init__(self, width: float) -> None:
        if width <= 0:
            raise ConfigurationError(f"bucket width must be positive, got {width}")
        self.width = width
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def add(self, time: Time, value: float) -> None:
        bucket = int(time // self.width)
        self._sums[bucket] = self._sums.get(bucket, 0.0) + value
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def bulk_add(self, bucket: int, total: float, count: int) -> None:
        """Fold ``count`` samples summing to ``total`` into one bucket.

        Equivalent to ``count`` calls of :meth:`add` with times inside
        the bucket — *bit*-equivalent when the samples are integer-valued
        (integer float sums below 2**53 are exact and order-free), which
        is how the bandwidth collector materialises byte-hop series from
        the transport's integer traffic cells at read time.
        """
        self._sums[bucket] = self._sums.get(bucket, 0.0) + total
        self._counts[bucket] = self._counts.get(bucket, 0) + count

    def __len__(self) -> int:
        return len(self._sums)

    def _buckets(self) -> list[int]:
        return sorted(self._sums)

    def sums(self) -> TimeSeries:
        """Per-bucket totals, indexed by bucket start time.

        Empty buckets between the first and last populated ones are
        included as zeros so rates are not silently inflated.
        """
        series = TimeSeries()
        buckets = self._buckets()
        if not buckets:
            return series
        for bucket in range(buckets[0], buckets[-1] + 1):
            series.append(bucket * self.width, self._sums.get(bucket, 0.0))
        return series

    def means(self) -> TimeSeries:
        """Per-bucket mean of added values (empty buckets skipped)."""
        series = TimeSeries()
        for bucket in self._buckets():
            series.append(
                bucket * self.width, self._sums[bucket] / self._counts[bucket]
            )
        return series

    def rates(self) -> TimeSeries:
        """Per-bucket totals divided by the bucket width (per-second rates)."""
        series = TimeSeries()
        totals = self.sums()
        for time, value in totals.items():
            series.append(time, value / self.width)
        return series

    def total(self) -> float:
        return sum(self._sums.values())

    def count(self) -> int:
        return sum(self._counts.values())
