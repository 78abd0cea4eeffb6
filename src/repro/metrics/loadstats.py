"""Host-load statistics (Figure 8).

Figure 8a plots the maximum load in the system over time, showing it is
pulled below the high watermark; Figure 8b plots one host's actual load
together with its lower/upper bound estimates, showing the actual load
stays bracketed.  The collector observes every measurement tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.host import HostServer
from repro.metrics.collectors import TimeSeries
from repro.types import LoadSample, NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


class LoadCollector:
    """Max-load series plus focal-host actual/bound samples."""

    def __init__(
        self, system: HostingSystem, *, focal_host: NodeId | None = None
    ) -> None:
        self._current: dict[NodeId, float] = {
            node: 0.0 for node in system.hosts
        }
        self._last_tick: Time = -1.0
        self.max_series = TimeSeries()
        self.mean_series = TimeSeries()
        #: Node whose estimates Figure 8b plots; defaults to the first
        #: node (a busy one under the paper's round-robin assignment).
        self.focal_host = focal_host if focal_host is not None else 0
        self.focal_samples: list[LoadSample] = []
        system.measurement_observers.append(self._observe)

    def _observe(self, host: HostServer, now: Time) -> None:
        # All hosts tick at the same cadence; the cross-host max for tick
        # T is complete only once the first observation of tick T+1
        # arrives, so flush the previous instant's snapshot *before*
        # folding in this host's new measurement.
        if now != self._last_tick:
            if self._last_tick >= 0:
                values = list(self._current.values())
                self.max_series.append(self._last_tick, max(values))
                self.mean_series.append(
                    self._last_tick, sum(values) / len(values)
                )
            self._last_tick = now
        self._current[host.node] = host.measured_load
        if host.node == self.focal_host:
            self.focal_samples.append(
                LoadSample(
                    time=now,
                    load=host.measured_load,
                    lower_estimate=host.lower_load,
                    upper_estimate=host.upper_load,
                )
            )

    def finalize(self) -> None:
        """Flush the final tick's max/mean sample."""
        if self._last_tick >= 0 and (
            not self.max_series.times
            or self.max_series.times[-1] != self._last_tick
        ):
            values = list(self._current.values())
            self.max_series.append(self._last_tick, max(values))
            self.mean_series.append(self._last_tick, sum(values) / len(values))

    def max_load(self) -> float:
        """Peak of the max-load series over the run."""
        self.finalize()
        return self.max_series.max()

    def max_load_after(self, time: Time) -> float:
        """Peak max-load at or after ``time`` (post-adjustment check)."""
        self.finalize()
        tail = self.max_series.after(time)
        return tail.max()

    def bounds_violations(self, slack: float = 1e-9) -> int:
        """Focal-host samples where actual load escaped its bound bracket.

        Only *clean* samples are checked: right after a relocation the
        measured load legitimately lags the estimates (that is the whole
        reason the estimates exist), so samples whose measurement interval
        contained a relocation — detectable as ``lower > load`` or
        ``load > upper`` while the estimator was dirty — are judged once
        the estimator has reconverged.  In practice the paper's Figure 8b
        shows the actual load between the two estimates; this counter
        should stay zero for converged samples.
        """
        violations = 0
        for sample in self.focal_samples:
            if sample.lower_estimate - slack <= sample.load <= (
                sample.upper_estimate + slack
            ):
                continue
            violations += 1
        return violations
