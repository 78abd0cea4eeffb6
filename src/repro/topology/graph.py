"""The :class:`Topology`: a validated undirected backbone graph.

A topology is the static substrate of a scenario: a connected, undirected
graph whose vertices are backbone nodes (router + co-located hosting
server, Section 2 of the paper) and whose edges are wide-area links.  All
links share the scenario's per-hop delay and bandwidth (Table 1), so edge
weights are uniform and "distance" means hop count.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_
from struct import unpack
from typing import Iterable, Mapping

from repro.errors import TopologyError
from repro.topology.regions import Region
from repro.types import NodeId


class Topology:
    """A validated, immutable backbone graph.

    Parameters
    ----------
    num_nodes:
        Node ids are ``0..num_nodes-1``.
    edges:
        Undirected links as ``(u, v)`` pairs between those ids.  They must
        connect every node and hold no self-loop; a repeated link counts
        once.  Their order is kept: it is the order of :meth:`links`.
    regions:
        Optional mapping of node id to :class:`Region`; required by the
        regional workload and the synthetic UUNET builder, optional for
        toy topologies.
    name:
        Human-readable label used in reports.
    capacities, qos:
        Optional per-node service capacity (requests/sec) and QoS hop-bound
        annotations, read by the optimal solvers' tree families through
        :func:`~repro.topology.generators.node_capacities` and
        :func:`~repro.topology.generators.node_qos`.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[NodeId, NodeId]],
        *,
        regions: Mapping[NodeId, Region] | None = None,
        name: str = "topology",
        capacities: Mapping[NodeId, float] | None = None,
        qos: Mapping[NodeId, int] | None = None,
    ) -> None:
        if num_nodes < 1:
            raise TopologyError("topology must contain at least one node")
        adjacency: list[list[NodeId]] = [[] for _ in range(num_nodes)]
        seen: set[tuple[NodeId, NodeId]] = set()
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TopologyError("node ids must be contiguous integers 0..n-1")
            if u == v:
                raise TopologyError("self-loops are not allowed")
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                adjacency[u].append(v)
                adjacency[v].append(u)
        self._adjacency = tuple(tuple(row) for row in adjacency)
        if num_nodes > 1 and -1 in self.hops_from(0):
            raise TopologyError("topology must be connected")
        if regions is not None:
            missing = set(range(num_nodes)) - set(regions)
            if missing:
                raise TopologyError(f"nodes missing region assignment: {sorted(missing)}")
        # Node by node, each neighbour in the order its link was first
        # given, skipping links already listed: networkx's edge order,
        # which the network's per-link table inherits.
        self._links = tuple(
            (u, v) for u, row in enumerate(self._adjacency) for v in row if v > u
        )
        self._regions = dict(regions) if regions is not None else {}
        self.capacities = dict(capacities) if capacities is not None else {}
        self.qos = dict(qos) if qos is not None else {}
        self.name = name

    def hops_from(self, source: NodeId) -> list[int]:
        """Hop counts from ``source`` to every node, by one breadth-first
        search (-1 for a node it cannot reach)."""
        adjacency = self._adjacency
        if not 0 <= source < len(adjacency):
            raise TopologyError(f"unknown node {source}")
        hops = [-1] * len(adjacency)
        hops[source] = level = 0
        frontier = [source]
        while frontier:
            level += 1
            reached = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if hops[neighbor] == -1:
                        hops[neighbor] = level
                        reached.append(neighbor)
            frontier = reached
        return hops

    def hop_matrix(self) -> list[list[int]]:
        """``[self.hops_from(s) for s in self.nodes]``, by one bit-parallel BFS
        from all sources at once (Akiba, Iwata & Yoshida, SIGMOD 2013): the
        sources level ``l`` adds to bitmask ``reach[v]`` lie ``l`` hops from
        ``v``, so they join ``v``'s bit-plane ``j`` for each set bit ``j`` of ``l``."""
        adjacency = self._adjacency
        n = len(adjacency)
        around = [itemgetter(v, *adjacency[v] or (v,)) for v in range(n)]  # (v, v): a tuple still
        reach = [1 << v for v in range(n)]
        planes = [[0] * n for _ in range(n.bit_length())]
        growing, level = range(n), 0
        while growing:  # a node that gains nothing has reached its whole component
            level += 1
            fresh = [(v, new) for v in growing if (new := reduce(or_, around[v](reach)) ^ reach[v])]
            ones = [plane for j, plane in enumerate(planes) if level >> j & 1]
            for v, bits in fresh:
                reach[v] ^= bits
                for plane in ones:
                    plane[v] |= bits
            growing = [v for v, _ in fresh]
        # Row ``v``: one signed field of ``width`` bytes per source, -1 if unreached.
        width = next(w for w in (1, 2, 4, 8) if level - 1 < 1 << 8 * w - 1)
        table, field, digits = bytes.maketrans(b"01", b"\0\1"), bytearray(n * width), f"0{n}b"
        planes.append([((1 << n) - 1) ^ mask for mask in reach])
        weights = [1 << j for j in range(n.bit_length())] + [(1 << 8 * width) - 1]
        row_format, matrix = f"<{n}{'bhiq'[width.bit_length() - 1]}", []
        for v in range(n):
            hops = 0
            for plane, weight in zip(planes, weights):
                if plane[v]:  # source s's bit to the lowest bit of field s
                    field[width - 1 :: width] = format(plane[v], digits).encode().translate(table)
                    hops += int.from_bytes(field, "big") * weight
            matrix.append(list(unpack(row_format, hops.to_bytes(n * width, "little"))))
        return matrix

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def nodes(self) -> range:
        """Node ids in ascending order."""
        return range(self.num_nodes)

    def links(self) -> Iterable[tuple[NodeId, NodeId]]:
        """All undirected links as ``(min_id, max_id)`` pairs."""
        return self._links

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return sorted(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        return len(self._adjacency[node])

    def region(self, node: NodeId) -> Region:
        """The region of ``node``; raises if regions were not assigned."""
        try:
            return self._regions[node]
        except KeyError:
            raise TopologyError(f"no region assigned to node {node}") from None

    @property
    def has_regions(self) -> bool:
        return bool(self._regions)

    def nodes_in_region(self, region: Region) -> list[NodeId]:
        return [n for n in self.nodes if self._regions.get(n) == region]

    def diameter(self) -> int:
        """Hop-count diameter of the backbone."""
        return max(map(max, self.hop_matrix()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r}: {self.num_nodes} nodes, "
            f"{self.num_links} links>"
        )
