"""Replica census over time (Table 2's "average number of replicas").

Tracks the total number of physical replicas by observing redirector
replica-set changes (creations net of drops), so the census is exact and
O(1) per event rather than a periodic full scan; a sampled time series is
recorded each placement interval for plots and equilibrium statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.collectors import TimeSeries
from repro.sim.process import PeriodicProcess
from repro.types import NodeId, ObjectId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


class ReplicaCollector:
    """Time series of total replicas plus relocation counters."""

    def __init__(
        self, system: HostingSystem, *, sample_interval: float = 60.0
    ) -> None:
        self._system = system
        self.series = TimeSeries()
        self.created = 0
        self.dropped = 0
        self._current = system.total_replicas()
        for service in system.redirectors.services:
            service.add_observer(self._observe)
        self.series.append(system.sim.now, float(self._current))
        self._process = PeriodicProcess(
            system.sim, sample_interval, self._sample
        )

    def _observe(
        self,
        obj: ObjectId,
        host: NodeId,
        affinity: int,
        created: bool,
        dropped: bool,
    ) -> None:
        if created:
            self.created += 1
            self._current += 1
        elif dropped:
            self.dropped += 1
            self._current -= 1

    def _sample(self, now: Time) -> None:
        self.series.append(now, float(self._current))

    @property
    def current_total(self) -> int:
        return self._current

    def replicas_per_object(self) -> float:
        """Current mean physical replicas per object."""
        return self._current / self._system.num_objects

    def equilibrium_replicas_per_object(self, tail: float = 0.25) -> float:
        """Mean replicas per object over the final ``tail`` of the run."""
        return self.series.mean_tail(tail) / self._system.num_objects

    def stop(self) -> None:
        self._process.stop()
