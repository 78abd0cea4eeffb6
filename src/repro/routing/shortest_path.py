"""Deterministic shortest paths over a backbone topology.

All backbone links are identical (Table 1: a uniform per-hop delay and
bandwidth), so shortest paths are breadth-first paths by hop count.  The
paper notes that "when there are equidistant paths between nodes i and j,
one path is chosen for all requests from i to j".  *Which* equal-length
path is chosen matters more than it looks: a global lexicographic rule
funnels every tie in the network through the lowest-numbered routers,
manufacturing artificial concentration on a handful of nodes (every
spoke's traffic would ride a single parent, which turns the placement
algorithm's >60% migration test into a one-way pump toward hubs).  Real
backbones hash ties per destination prefix (ECMP), so different
destinations ride different equal-cost parents.  We reproduce that: ties
are broken by a deterministic hash of ``(source, target, candidate)``,
fixed for all time — the same pair always uses the same path, but
different pairs split across the equal-cost options.

Laziness
--------
Distances (the hot per-request quantity) are computed eagerly, one
level-synchronous BFS per source, and they are all that is stored: the
parents of ``v`` in source ``s``'s shortest-path DAG are exactly the
neighbours ``u`` with ``dist[s][u] == dist[s][v] - 1``, so a walk reads
them off the distance row.  Canonical *paths* are only walked on first use
and cached per ordered pair: at 500 nodes the eager variant spends seconds
hashing ~n³ tie-break candidates for 250k paths of which a scenario
touches a tiny, workload-dependent subset (the request fast lane defers
preference-path expansion to placement time, so short benchmark runs
touch none at all).  The choice per pair depends only on distances,
adjacency and the hash — never on when, or in what order, paths are
materialised — so lazy and eager construction yield byte-identical routes.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.errors import RoutingError
from repro.topology.graph import Topology
from repro.types import NodeId


class ShortestPathIndex:
    """All-pairs hop distances with lazily materialised canonical paths.

    ``dist_matrix[i][j]`` is the hop count between ``i`` and ``j``;
    :meth:`path` walks (and caches) the canonical node sequence for one
    ordered pair, reading each step's equal-cost parents off the distance
    row and breaking ties with the hashed ECMP-style rule.  The index is
    effectively immutable — the cache only ever fills in values that are
    a pure function of the topology — so it is safe to share between a
    routing database and its snapshots.
    """

    __slots__ = ("dist_matrix", "_adjacency", "_node_bytes", "_paths")

    def __init__(self, topology: Topology) -> None:
        n = topology.num_nodes
        adjacency = tuple(tuple(topology.neighbors(node)) for node in range(n))
        dist_matrix: list[list[int]] = []
        for source in range(n):
            dist = [-1] * n
            dist[source] = level = 0
            frontier = [source]
            while frontier:
                level += 1
                reached = []
                for node in frontier:
                    for neighbor in adjacency[node]:
                        if dist[neighbor] == -1:
                            dist[neighbor] = level
                            reached.append(neighbor)
                frontier = reached
            if -1 in dist:
                raise RoutingError(f"topology disconnected from node {source}")
            dist_matrix.append(dist)
        self.dist_matrix = dist_matrix
        self._adjacency = adjacency
        #: What a tie candidate appends to its pair's ``b"s:t:"`` prefix.
        self._node_bytes = tuple(str(node).encode() for node in range(n))
        self._paths: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}

    def path(self, source: NodeId, target: NodeId) -> tuple[NodeId, ...]:
        """The canonical ``source -> target`` node sequence, inclusive."""
        key = (source, target)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        adjacency = self._adjacency
        if not (0 <= source < len(adjacency) and 0 <= target < len(adjacency)):
            raise RoutingError(f"no route {source} -> {target}")
        row = self.dist_matrix[source]
        prefix = None
        chain = [target]
        node = target
        for depth in range(row[target] - 1, -1, -1):
            options = [u for u in adjacency[node] if row[u] == depth]
            node = options[0]
            if len(options) > 1:
                # Candidate ``c``'s key is blake2b(f"{source}:{target}:{c}");
                # 8-byte digests order as the big-endian ints they encode.
                if prefix is None:
                    prefix = blake2b(f"{source}:{target}:".encode(), digest_size=8)
                    node_bytes = self._node_bytes
                best = None
                for candidate in options:
                    tie = prefix.copy()
                    tie.update(node_bytes[candidate])
                    digest = tie.digest()
                    if best is None or digest < best:
                        best, node = digest, candidate
            chain.append(node)
        path = self._paths[key] = tuple(reversed(chain))
        return path


def all_pairs_shortest_paths(
    topology: Topology,
) -> tuple[list[list[int]], dict[tuple[NodeId, NodeId], tuple[NodeId, ...]]]:
    """Compute hop distances and one canonical path per ordered pair.

    Returns ``(dist, paths)``: ``dist[i][j]`` is the hop count between
    ``i`` and ``j``; ``paths[(i, j)]`` is the canonical node sequence from
    ``i`` to ``j`` inclusive of both endpoints (``(i,)`` when ``i == j``).
    Among equal-length paths, the hashed ECMP-style tie-break picks one
    deterministically per ``(i, j)`` pair.

    Raises :class:`RoutingError` if the topology is disconnected (which
    :class:`~repro.topology.graph.Topology` normally prevents).

    This eager variant exists for analysis tooling and tests; the
    simulator routes through :class:`ShortestPathIndex`, which makes the
    same walks lazily and produces byte-identical paths.
    """
    index = ShortestPathIndex(topology)
    for source in topology.nodes:
        for target in topology.nodes:
            index.path(source, target)
    return index.dist_matrix, dict(index._paths)
