"""Response latency accounting (Figure 6, right panes).

A request's latency is queueing plus service at the host plus all network
delays, including the distributor-to-redirector detour (the reason the
paper's latency win is smaller than its bandwidth win).  The hosting
system writes every completion into its own ledger
(:meth:`HostingSystem.meter_completions`: run scalars plus per-bucket
``[count, latency_sum, response_hops_sum]`` cells and drop counts); this
collector is the read-time view over it, so a completion costs a few adds
whichever pipeline carried the request.  Raw samples can optionally be
retained for percentile analysis in small runs.
"""

from __future__ import annotations

from repro.core.protocol import HostingSystem
from repro.errors import ConfigurationError
from repro.metrics.collectors import BucketedSeries, TimeSeries


class LatencyCollector:
    """Mean response latency per time bucket plus run aggregates."""

    def __init__(
        self,
        system: HostingSystem,
        *,
        bucket: float = 60.0,
        keep_samples: bool = False,
    ) -> None:
        self.bucket = bucket
        self._system = system
        system.meter_completions(bucket, keep_samples)

    # -- run aggregates: the system's own counters --------------------

    @property
    def completed(self) -> int:
        return self._system.completed

    @property
    def dropped(self) -> int:
        """Requests turned away by saturated hosts (queue overflow)."""
        return self._system.dropped_requests

    @property
    def failed(self) -> int:
        """Requests that found no available replica (failure injection)."""
        return self._system.failed_requests

    @property
    def lost(self) -> int:
        """Requests lost in transit or to a mid-service crash (fault
        plane only; always zero on a reliable network).  No response
        ever reached the client, so they enter no latency statistic."""
        return self._system.lost_requests

    @property
    def total_latency(self) -> float:
        return self._system.total_latency

    @property
    def total_response_hops(self) -> int:
        return self._system.total_response_hops

    @property
    def max_latency(self) -> float:
        return self._system.max_latency

    @property
    def samples(self) -> list[float] | None:
        return self._system.latency_samples

    # -- per-bucket series --------------------------------------------

    def _completion_series(self, column: int) -> BucketedSeries:
        """One summed column of the completion cells as a bucketed series."""
        series = BucketedSeries(self.bucket)
        for bucket, cell in self._system.completions.items():
            series.bulk_add(bucket, cell[column], cell[0])
        return series

    def mean_latency_series(self) -> TimeSeries:
        """Mean latency of requests completing in each bucket (Fig. 6)."""
        return self._completion_series(1).means()

    def mean_response_hops_series(self) -> TimeSeries:
        """Mean response hop count per bucket (a proximity proxy)."""
        return self._completion_series(2).means()

    def dropped_series(self) -> TimeSeries:
        """Dropped requests per bucket (saturated-host rejections)."""
        series = BucketedSeries(self.bucket)
        for bucket, count in self._system.drop_counts.items():
            series.bulk_add(bucket, float(count), count)
        return series.sums()

    def drop_rate(self) -> float:
        """Fraction of all observed requests that were dropped."""
        total = self.completed + self.dropped
        return self.dropped / total if total else 0.0

    def mean_latency(self) -> float:
        if not self.completed:
            raise ConfigurationError("no completed requests")
        return self.total_latency / self.completed

    def mean_response_hops(self) -> float:
        if not self.completed:
            raise ConfigurationError("no completed requests")
        return self.total_response_hops / self.completed

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100]; needs ``keep_samples``."""
        samples = self.samples
        if samples is None:
            raise ConfigurationError("collector built without keep_samples")
        if not samples:
            raise ConfigurationError("no completed requests")
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]
