"""The one latency structure: mergeable log-bucketed histograms.

Both planes fold latencies in instead of keeping every sample, which at
the paper's millions of simulated completions (or a loadgen's tens of
thousands of rps) would dominate the run: the simulator's completion
ledger records each completion into its system's histogram, and each
loadgen worker keeps one that the parent merges by bucket counts.
Geometric (log-spaced) buckets give constant *relative* resolution: with
the 5% growth factor every nearest-rank quantile (``ceil(q·n)``) is
accurate to ±2.5% across the whole 0.05 ms – 120 s span, which is far
below run-to-run noise.

Buckets are kept sparse (a dict index → count), so an idle histogram
costs nothing and serialisation ships only occupied buckets.  Exact
``total``/``min``/``max`` ride alongside the buckets, so the mean stays
exact and only the quantiles are bucket-resolved.
"""

from __future__ import annotations

import math
from math import log
from typing import Any

#: The bucket geometry: bucket 0 holds everything up to ``BASE``, bucket
#: ``i >= 1`` the latencies from ``BASE·GROWTH^(i-1)`` up to
#: ``BASE·GROWTH^i``; resolution is ±(GROWTH-1)/2 per quantile.
BASE = 50e-6  # 0.05 ms: below any real network round trip
GROWTH = 1.05
_LOG_GROWTH = math.log(GROWTH)


class LatencyHistogram:
    """Sparse geometric histogram over positive latencies (seconds)."""

    __slots__ = ("_buckets", "count", "max", "min", "total")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------

    def record(self, latency: float) -> None:
        """Fold one sample (seconds) in; once per simulated completion."""
        index = 0 if latency <= BASE else 1 + int(log(latency / BASE) / _LOG_GROWTH)
        try:  # a bucket's first sample is the only miss
            self._buckets[index] += 1
        except KeyError:
            self._buckets[index] = 1
        self.count += 1
        self.total += latency
        if latency < self.min:
            self.min = latency
        if latency > self.max:
            self.max = latency

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """The nearest-rank ``q`` quantile (seconds), ``q`` in [0, 1];
        0.0 when empty.

        Resolved to the matching bucket's geometric midpoint, clamped
        into the exact observed [min, max] so single-sample and extreme
        quantiles never leave the data's range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                break
        return min(self.max, max(self.min, self._midpoint(index)))

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    # Serialisation (for multiprocess merge)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(index): count for index, count in self._buckets.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LatencyHistogram":
        histogram = cls()
        histogram._buckets = {
            int(index): int(count)
            for index, count in payload.get("buckets", {}).items()
        }
        histogram.count = int(payload["count"])
        histogram.total = float(payload["total"])
        if histogram.count:
            histogram.min = float(payload["min"])
            histogram.max = float(payload["max"])
        return histogram

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @staticmethod
    def _midpoint(index: int) -> float:
        if index == 0:
            return BASE / 2
        return BASE * GROWTH ** (index - 1) * math.sqrt(GROWTH)


__all__ = ["LatencyHistogram"]
