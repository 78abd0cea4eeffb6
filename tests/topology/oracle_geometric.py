"""The retired geometric generator, kept verbatim as an oracle (ISSUE 24).

Until then ``random_geometric_topology`` drew its edges with
``nx.random_geometric_graph``, which imports numpy and scipy (a k-d tree)
to find a few thousand edges — 44 MB of resident memory — and silently
takes a different O(n²) comparison when scipy is not installed.  The
production generator now bins the points into cells itself;
``tests/topology/test_generators.py`` requires both to give the same
name, the same edge list and the same neighbour order.  Import this
module only behind ``pytest.importorskip("scipy")``: without scipy the
oracle would not be the code that drew the edges before.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.errors import TopologyError
from repro.sim.rng import RngFactory
from repro.topology.graph import Topology


def random_geometric_topology(
    n: int, *, radius: float | None = None, seed: int = 7
) -> Topology:
    if n < 2:
        raise TopologyError("random geometric topology needs n >= 2")
    rng = RngFactory(seed).stream("geometric")
    positions = {i: (rng.random(), rng.random()) for i in range(n)}
    r = radius if radius is not None else 1.2 * math.sqrt(math.log(n) / (math.pi * n))
    for _ in range(64):
        graph = nx.random_geometric_graph(n, r, pos=positions)
        if nx.is_connected(graph):
            plain = nx.Graph()
            plain.add_nodes_from(range(n))
            plain.add_edges_from(graph.edges)
            return Topology(plain, name=f"geo-{n}-r{r:.3f}")
        r *= 1.15
    raise TopologyError(f"could not build a connected geometric graph on {n} nodes")
