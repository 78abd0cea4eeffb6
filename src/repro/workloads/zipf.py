"""The Zipf workload (Section 6.1).

"Clients choose pages according to Zipf's law, where the page number
corresponds to its popularity rank": object 0 is the most popular.  The
paper samples with Jim Reeds' closed-form approximation (footnote 3),
``round(exp(U(0,1) * ln n))``, which tracks the true law within 15%; we
default to the same approximation and optionally offer the exact
table-driven sampler for sensitivity analysis.
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError
from repro.sim.rng import zipf_exact, zipf_exact_cdf, zipf_reeds, zipf_reeds_many
from repro.types import NodeId, ObjectId
from repro.workloads.base import Workload


class ZipfWorkload(Workload):
    """Zipf-popularity requests, identical at every gateway."""

    def __init__(
        self,
        num_objects: int,
        *,
        exact: bool = False,
        alpha: float = 1.0,
    ) -> None:
        super().__init__(num_objects)
        if alpha <= 0:
            raise WorkloadError(f"Zipf alpha must be positive, got {alpha}")
        self.exact = exact
        self.alpha = alpha
        self._cdf = zipf_exact_cdf(num_objects, alpha) if exact else None

    def sample(self, gateway: NodeId, rng: random.Random) -> ObjectId:
        if self._cdf is not None:
            rank = zipf_exact(rng, self._cdf)
        else:
            rank = zipf_reeds(rng, self.num_objects)
        return rank - 1

    def sample_many(
        self, gateway: NodeId, rng: random.Random, count: int
    ) -> list[ObjectId]:
        if self._cdf is not None:
            return super().sample_many(gateway, rng, count)
        return [rank - 1 for rank in zipf_reeds_many(rng, self.num_objects, count)]

    @property
    def name(self) -> str:
        return "zipf"
