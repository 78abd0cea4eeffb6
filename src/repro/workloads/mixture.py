"""Composite workloads: time-phased demand shifts.

The paper notes "one can expect that a real-life workload would be some
mix of workloads similar to the ones considered" and measures the
protocol's *responsiveness to changes in demand patterns* — the
adjustment time from the initial assignment is one such change.
:class:`PhasedWorkload` generalises this: the active workload switches at
configured simulated times, letting experiments measure re-adjustment
after an established equilibrium (used by the flash-crowd example and the
responsiveness benchmarks).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import WorkloadError
from repro.types import NodeId, ObjectId, Time
from repro.workloads.base import Workload


class PhasedWorkload(Workload):
    """Switches between workloads at fixed simulated times.

    ``phases`` is a list of ``(start_time, workload)`` with strictly
    increasing start times; the first phase must start at 0.  The active
    phase is selected by a clock callable (normally ``sim.now``) supplied
    at construction, keeping the workload object free of simulator
    dependencies.
    """

    def __init__(
        self,
        phases: Sequence[tuple[Time, Workload]],
        clock: Callable[[], Time],
    ) -> None:
        if not phases:
            raise WorkloadError("a phased workload needs at least one phase")
        starts = [start for start, _ in phases]
        if starts[0] != 0:
            raise WorkloadError("the first phase must start at time 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise WorkloadError("phase start times must strictly increase")
        sizes = {workload.num_objects for _, workload in phases}
        if len(sizes) != 1:
            raise WorkloadError(
                f"phase workloads disagree on namespace size: {sorted(sizes)}"
            )
        super().__init__(next(iter(sizes)))
        self._phases = list(phases)
        self._clock = clock

    def active_workload(self) -> Workload:
        """The workload of the current phase."""
        now = self._clock()
        current = self._phases[0][1]
        for start, workload in self._phases:
            if start <= now:
                current = workload
            else:
                break
        return current

    def sample(self, gateway: NodeId, rng: random.Random) -> ObjectId:
        return self.active_workload().sample(gateway, rng)

    @property
    def name(self) -> str:
        return "phased(" + ",".join(w.name for _, w in self._phases) + ")"
