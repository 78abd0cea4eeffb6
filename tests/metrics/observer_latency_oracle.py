"""The observer-based latency collector, kept as the oracle for the view.

This is ``repro.metrics.latency.LatencyCollector`` as it was while the
request stages handed a mutable record to an observer list: it keeps its
own counters and three ``BucketedSeries``, fed one record at a time.  The
record type went with it (``repro.types.RequestRecord``); the few fields
the collector read live on here.  ``test_latency_view.py`` holds the
ledger-backed view to this, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.collectors import BucketedSeries, TimeSeries


@dataclass
class Outcome:
    """What the old collector read off a finished request."""

    issued_at: float
    completed_at: float
    response_hops: int = 0
    dropped: bool = False
    failed: bool = False
    lost: bool = False

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


class ObserverLatencyCollector:
    def __init__(self, *, bucket: float = 60.0, keep_samples: bool = False) -> None:
        self._buckets = BucketedSeries(bucket)
        self._hop_buckets = BucketedSeries(bucket)
        self._drop_buckets = BucketedSeries(bucket)
        self.dropped = 0
        self.failed = 0
        self.lost = 0
        self.completed = 0
        self.total_latency = 0.0
        self.total_response_hops = 0
        self.max_latency = 0.0
        self.samples: list[float] | None = [] if keep_samples else None

    def observe(self, record: Outcome) -> None:
        if record.failed:
            self.failed += 1
            return
        if record.lost:
            self.lost += 1
            return
        if record.dropped:
            self.dropped += 1
            self._drop_buckets.add(record.completed_at, 1.0)
            return
        latency = record.latency
        self.completed += 1
        self.total_latency += latency
        self.total_response_hops += record.response_hops
        if latency > self.max_latency:
            self.max_latency = latency
        self._buckets.add(record.completed_at, latency)
        self._hop_buckets.add(record.completed_at, float(record.response_hops))
        if self.samples is not None:
            self.samples.append(latency)

    def mean_latency_series(self) -> TimeSeries:
        return self._buckets.means()

    def mean_response_hops_series(self) -> TimeSeries:
        return self._hop_buckets.means()

    def dropped_series(self) -> TimeSeries:
        return self._drop_buckets.sums()
