"""Synthetic workloads (Section 6.1).

Four request-pattern families drive the paper's evaluation:

* **Zipf** — object popularity follows Zipf's law (sampled with Reeds'
  closed-form approximation, as in the paper).
* **Hot-sites** — 10% of *sites* are hot; 90% of requests go to pages
  initially assigned to hot sites (popularity concentrated at few nodes).
* **Hot-pages** — 10% of *pages* (spread across all sites) are hot and
  receive 90% of requests.
* **Regional** — each of the four backbone regions prefers its own
  contiguous 1% slice of the namespace with probability 90%.

All workloads expose ``sample(gateway, rng) -> ObjectId``;
:class:`~repro.workloads.base.RequestGenerator` turns a workload into a
constant-rate request stream per gateway node.
:class:`~repro.workloads.mixture.PhasedWorkload` switches workloads at set
times (for demand-shift / responsiveness experiments).
"""

from repro.workloads.base import (
    RequestGenerator,
    UniformWorkload,
    Workload,
    attach_generators,
    canonical_object_ids,
)
from repro.workloads.hot_pages import HotPagesWorkload
from repro.workloads.hot_sites import HotSitesWorkload
from repro.workloads.mixture import PhasedWorkload
from repro.workloads.regional import RegionalWorkload
from repro.workloads.zipf import ZipfWorkload

#: Scenario workloads by name: ``factory(num_objects, topology, rng_factory)``.
#: The first four are the paper's (Section 6.1), in its order.
SCENARIO_WORKLOADS = {
    "zipf": lambda n, topology, rngs: ZipfWorkload(n),
    "hot-sites": lambda n, topology, rngs: HotSitesWorkload(
        n, topology.num_nodes, split_rng=rngs.stream("hot-sites-split")
    ),
    "hot-pages": lambda n, topology, rngs: HotPagesWorkload(
        n, split_rng=rngs.stream("hot-pages-split")
    ),
    "regional": lambda n, topology, rngs: RegionalWorkload(n, topology),
    "uniform": lambda n, topology, rngs: UniformWorkload(n),
}

__all__ = [
    "SCENARIO_WORKLOADS",
    "Workload",
    "UniformWorkload",
    "ZipfWorkload",
    "HotSitesWorkload",
    "HotPagesWorkload",
    "RegionalWorkload",
    "PhasedWorkload",
    "RequestGenerator",
    "attach_generators",
    "canonical_object_ids",
]
