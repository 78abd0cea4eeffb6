"""The retired routing index, kept verbatim as an oracle (PR 22).

Until PR 22 ``ShortestPathIndex`` stored, for every source, the parent
list of every node in that source's shortest-path DAG (n² Python lists)
and hashed ``f"{source}:{target}:{candidate}"`` afresh per tie candidate.
The production index now derives parents from ``dist_matrix`` + adjacency
and extends one ``blake2b`` prefix per walked path;
``tests/routing/test_index_oracle.py`` requires both to agree on every
distance and every route.
"""

from __future__ import annotations

import hashlib
from collections import deque

from repro.errors import RoutingError
from repro.topology.graph import Topology
from repro.types import NodeId


def _tie_key(source: NodeId, target: NodeId, candidate: NodeId) -> int:
    digest = hashlib.blake2b(
        f"{source}:{target}:{candidate}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShortestPathIndex:
    """Per-source BFS DAGs with lazily materialised canonical paths.

    ``dist_matrix[i][j]`` is the hop count between ``i`` and ``j``;
    :meth:`path` walks (and caches) the canonical node sequence for one
    ordered pair using the hashed ECMP-style tie-break.  The index is
    effectively immutable — the cache only ever fills in values that are
    a pure function of the topology — so it is safe to share between a
    routing database and its snapshots.
    """

    __slots__ = ("dist_matrix", "_parents", "_paths")

    def __init__(self, topology: Topology) -> None:
        n = topology.num_nodes
        adjacency = [list(topology.neighbors(node)) for node in range(n)]
        dist_matrix: list[list[int]] = []
        all_parents: list[list[list[int]]] = []
        for source in range(n):
            dist = [-1] * n
            parents: list[list[int]] = [[] for _ in range(n)]
            dist[source] = 0
            queue: deque[int] = deque([source])
            while queue:
                node = queue.popleft()
                next_dist = dist[node] + 1
                for neighbor in adjacency[node]:
                    d = dist[neighbor]
                    if d == -1:
                        dist[neighbor] = next_dist
                        parents[neighbor].append(node)
                        queue.append(neighbor)
                    elif d == next_dist:
                        parents[neighbor].append(node)
            if -1 in dist:
                raise RoutingError(f"topology disconnected from node {source}")
            dist_matrix.append(dist)
            all_parents.append(parents)
        self.dist_matrix = dist_matrix
        self._parents = all_parents
        self._paths: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}

    def path(self, source: NodeId, target: NodeId) -> tuple[NodeId, ...]:
        """The canonical ``source -> target`` node sequence, inclusive."""
        key = (source, target)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        parents = self._parents[source]
        chain = [target]
        node = target
        while node != source:
            options = parents[node]
            if len(options) == 1:
                node = options[0]
            else:
                node = min(options, key=lambda p: _tie_key(source, target, p))
            chain.append(node)
        chain.reverse()
        path = tuple(chain)
        self._paths[key] = path
        return path
