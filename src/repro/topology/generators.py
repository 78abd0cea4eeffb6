"""Additional topology families for tests, examples and ablations.

None of these are used by the paper-reproduction scenarios (those use the
synthetic UUNET backbone), but small regular topologies make protocol
behaviour easy to reason about in unit tests and examples, and random
geometric graphs let the ablation benchmarks check that results are not an
artifact of one particular backbone.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx

from repro.errors import TopologyError
from repro.sim.rng import RngFactory
from repro.topology.graph import Topology
from repro.topology.regions import Region


def line_topology(n: int) -> Topology:
    """``n`` nodes in a path: 0 - 1 - ... - n-1."""
    if n < 1:
        raise TopologyError("line topology needs n >= 1")
    graph = nx.path_graph(n)
    return Topology(graph, name=f"line-{n}")


def ring_topology(n: int) -> Topology:
    """``n`` nodes in a cycle."""
    if n < 3:
        raise TopologyError("ring topology needs n >= 3")
    graph = nx.cycle_graph(n)
    return Topology(graph, name=f"ring-{n}")


def star_topology(n: int) -> Topology:
    """Node 0 is the hub; nodes 1..n-1 are spokes."""
    if n < 2:
        raise TopologyError("star topology needs n >= 2")
    graph = nx.star_graph(n - 1)
    return Topology(graph, name=f"star-{n}")


def grid_topology(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` 4-neighbour mesh, nodes numbered row-major."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid topology needs positive dimensions")
    graph = nx.Graph()
    graph.add_nodes_from(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1)
            if r + 1 < rows:
                graph.add_edge(node, node + cols)
    return Topology(graph, name=f"grid-{rows}x{cols}")


def two_cluster_topology(
    cluster_size: int = 4, bridge_length: int = 3
) -> Topology:
    """Two dense clusters joined by a path of ``bridge_length`` links.

    A miniature "America / Europe" world used throughout the tests and the
    motivating examples of Section 3: nodes ``0..cluster_size-1`` form
    clique A (region WESTERN_NA), the last ``cluster_size`` nodes form
    clique B (region EUROPE), and ``bridge_length - 1`` relay nodes
    (region EASTERN_NA) connect them.
    """
    if cluster_size < 1 or bridge_length < 1:
        raise TopologyError("cluster size and bridge length must be >= 1")
    relay_count = bridge_length - 1
    total = 2 * cluster_size + relay_count
    graph = nx.Graph()
    graph.add_nodes_from(range(total))
    cluster_a = list(range(cluster_size))
    relays = list(range(cluster_size, cluster_size + relay_count))
    cluster_b = list(range(cluster_size + relay_count, total))
    for u, v in itertools.combinations(cluster_a, 2):
        graph.add_edge(u, v)
    for u, v in itertools.combinations(cluster_b, 2):
        graph.add_edge(u, v)
    chain = [cluster_a[-1], *relays, cluster_b[0]]
    for u, v in zip(chain, chain[1:]):
        graph.add_edge(u, v)
    regions: dict[int, Region] = {}
    for node in cluster_a:
        regions[node] = Region.WESTERN_NA
    for node in relays:
        regions[node] = Region.EASTERN_NA
    for node in cluster_b:
        regions[node] = Region.EUROPE
    return Topology(
        graph, regions=regions, name=f"two-cluster-{cluster_size}x2+{bridge_length}"
    )


#: Default node annotations for the tree families.  Capacity is in
#: requests/sec (the scenario-level unit); QoS is a hop bound: the
#: maximum distance a node tolerates to its serving replica (the
#: Rehn-Sonigo tree-placement formulation the optimal solvers use).
DEFAULT_TREE_CAPACITY = 200.0


def _annotate_nodes(
    graph: nx.Graph, capacities: dict[int, float], qos: dict[int, int]
) -> None:
    for node, value in capacities.items():
        graph.nodes[node]["capacity"] = value
    for node, value in qos.items():
        graph.nodes[node]["qos"] = value


def node_capacities(
    topology: Topology, default: float = DEFAULT_TREE_CAPACITY
) -> dict[int, float]:
    """Per-node service capacity annotations (``default`` where absent)."""
    graph = topology.graph
    return {
        node: float(graph.nodes[node].get("capacity", default))
        for node in topology.nodes
    }


def node_qos(topology: Topology, default: int | None = None) -> dict[int, int]:
    """Per-node QoS hop-bound annotations.

    Nodes without an annotation get ``default``; a ``None`` default means
    "unbounded" and is reported as the topology's diameter (always a
    valid bound on a connected graph).
    """
    graph = topology.graph
    fallback = topology.diameter() if default is None else default
    return {
        node: int(graph.nodes[node].get("qos", fallback))
        for node in topology.nodes
    }


def balanced_tree_topology(
    branching: int,
    height: int,
    *,
    capacity: float = DEFAULT_TREE_CAPACITY,
    qos: int | None = None,
) -> Topology:
    """A complete ``branching``-ary tree of the given height, rooted at 0.

    Nodes are numbered breadth-first (node ``i``'s children are
    ``branching*i + 1 .. branching*i + branching``), so the layout is
    fully deterministic.  Every node carries a ``capacity`` annotation
    (requests/sec) and a ``qos`` hop bound (default: ``2 * height``, the
    diameter, i.e. effectively unbounded).
    """
    if branching < 1:
        raise TopologyError("balanced tree needs branching >= 1")
    if height < 0:
        raise TopologyError("balanced tree needs height >= 0")
    if capacity <= 0:
        raise TopologyError("tree capacity must be positive")
    n = sum(branching**level for level in range(height + 1))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(n):
        for k in range(1, branching + 1):
            child = branching * node + k
            if child >= n:
                break
            graph.add_edge(node, child)
    bound = qos if qos is not None else max(1, 2 * height)
    _annotate_nodes(
        graph,
        {node: capacity for node in range(n)},
        {node: bound for node in range(n)},
    )
    return Topology(graph, name=f"ktree-{branching}x{height}")


def random_tree_topology(
    n: int,
    *,
    seed: int = 7,
    capacity_range: tuple[float, float] = (
        0.5 * DEFAULT_TREE_CAPACITY,
        1.5 * DEFAULT_TREE_CAPACITY,
    ),
    qos_range: tuple[int, int] | None = None,
) -> Topology:
    """A random-attachment tree on ``n`` nodes, rooted at 0.

    Node ``i`` (``i >= 1``) attaches to a uniformly random earlier node,
    drawn from the seed-derived ``"random-tree"`` stream — the same seed
    always yields the same tree, capacities and QoS bounds.  Capacities
    are uniform in ``capacity_range``; QoS hop bounds are integers in
    ``qos_range`` (default: ``(2, diameter)``, so bounds bite without
    making instances trivially infeasible).
    """
    if n < 1:
        raise TopologyError("random tree topology needs n >= 1")
    lo, hi = capacity_range
    if lo <= 0 or hi < lo:
        raise TopologyError(f"bad capacity range {capacity_range!r}")
    rng = RngFactory(seed).stream("random-tree")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(1, n):
        graph.add_edge(rng.randrange(node), node)
    capacities = {node: rng.uniform(lo, hi) for node in range(n)}
    if qos_range is None:
        diameter = (
            max(
                max(lengths.values())
                for _, lengths in nx.shortest_path_length(graph)
            )
            if n > 1
            else 1
        )
        qos_range = (min(2, diameter), max(2, diameter))
    q_lo, q_hi = qos_range
    if q_lo < 0 or q_hi < q_lo:
        raise TopologyError(f"bad qos range {qos_range!r}")
    qos = {node: rng.randint(q_lo, q_hi) for node in range(n)}
    _annotate_nodes(graph, capacities, qos)
    return Topology(graph, name=f"rtree-{n}-s{seed}")


def random_geometric_topology(
    n: int, *, radius: float | None = None, seed: int = 7
) -> Topology:
    """A connected random geometric graph on the unit square.

    Nodes are placed uniformly at random; nodes within ``radius`` are
    linked.  The radius defaults to slightly above the connectivity
    threshold ``sqrt(ln n / (pi n))`` and is grown until the graph is
    connected, so the function always returns a valid topology.
    """
    if n < 2:
        raise TopologyError("random geometric topology needs n >= 2")
    r = radius if radius is not None else 1.2 * math.sqrt(math.log(n) / (math.pi * n))
    if not 0 < r < math.inf:
        raise TopologyError(f"radius must be a positive finite number, got {r}")
    rng = RngFactory(seed).stream("geometric")
    points = [(rng.random(), rng.random()) for _ in range(n)]
    for _ in range(64):
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(_pairs_within(points, r))
        if nx.is_connected(graph):
            return Topology(graph, name=f"geo-{n}-r{r:.3f}")
        r *= 1.15
    raise TopologyError(f"could not build a connected geometric graph on {n} nodes")


def _pairs_within(points: list[tuple[float, float]], r: float) -> list[tuple[int, int]]:
    """Sorted index pairs ``u < v`` no further apart than ``r``: the points are
    binned into cells of side ``r`` and only 3 x 3 neighbourhoods compared."""
    cells: dict[tuple[int, int], list[int]] = {}
    for index, (x, y) in enumerate(points):
        cells.setdefault((int(x // r), int(y // r)), []).append(index)
    pairs = []
    for (cx, cy), members in cells.items():
        block = [(i, j) for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)]
        near = [(v, *points[v]) for cell in block for v in cells.get(cell, ())]
        for u in members:
            x, y = points[u]
            for v, vx, vy in near:
                if u < v and (x - vx) * (x - vx) + (y - vy) * (y - vy) <= r * r:
                    pairs.append((u, v))
    return sorted(pairs)
