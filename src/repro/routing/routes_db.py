"""The routing database: distances, routes and preference paths.

One :class:`RoutingDatabase` instance models the information the paper's
protocol extracts from the platform routers (Section 2):

* hop distances between any two platform nodes,
* the canonical route (and hence the *preference path*) between nodes,
* helper orderings (closest replica to a gateway, farthest-first candidate
  ordering) used by the request-distribution and placement algorithms.

Distances are computed eagerly (one BFS per source) and are the only
thing the index stores per pair; canonical paths are walked lazily per
ordered pair on first use, reading each step's equal-cost parents off the
distance row — see :class:`~repro.routing.shortest_path.ShortestPathIndex`
for why this is byte-identical to eager construction.  Node ids outside
``0..n-1`` raise :class:`RoutingError` from :meth:`distance` and
:meth:`route` (a negative id would otherwise index from the end);
:meth:`distance_row` is the unchecked request-path accessor.

Staleness: the paper extracts routes "asynchronously with client requests,
thereby reducing request latency at the expense of potential staleness".
:meth:`RoutingDatabase.snapshot` returns a frozen copy so scenarios can
model stale routing views refreshed by a periodic process, while the live
instance always reflects the current topology.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.routing.shortest_path import ShortestPathIndex
from repro.topology.graph import Topology
from repro.types import NodeId


class RoutingDatabase:
    """Precomputed deterministic routes over a topology."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._index = ShortestPathIndex(topology)
        self._dist = self._index.dist_matrix
        self._row_sums: list[int] | None = None

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def num_nodes(self) -> int:
        return self._topology.num_nodes

    def distance(self, a: NodeId, b: NodeId) -> int:
        """Hop count between two platform nodes."""
        if a >= 0 and b >= 0:
            try:
                return self._dist[a][b]
            except IndexError:
                pass
        raise RoutingError(f"unknown node in distance({a}, {b})")

    def distance_row(self, node: NodeId) -> list[int]:
        """The full distance row of ``node`` (read-only; hot-path helper)."""
        return self._dist[node]

    def route(self, source: NodeId, target: NodeId) -> tuple[NodeId, ...]:
        """The canonical route from ``source`` to ``target``, inclusive.

        All messages between the pair take this route ("one path is chosen
        for all requests from i to j").
        """
        return self._index.path(source, target)

    def preference_path(self, server: NodeId, client: NodeId) -> tuple[NodeId, ...]:
        """Hosts on the route a response takes from ``server`` to ``client``.

        Per Section 2, the preference path from host ``s`` to client ``c``
        is the sequence of hosts co-located with the routers on the
        ``s -> c`` route; hosts are not distinguished from their routers.
        Both endpoints are included: the serving host trivially appears on
        every one of its own preference paths (so ``cnt(s, x_s)`` equals
        the total access count), and the path's last element is the
        gateway closest to the client.
        """
        return self.route(server, client)

    def hops(self, source: NodeId, target: NodeId) -> int:
        """Number of backbone links traversed between the nodes."""
        return self.distance(source, target)

    def closest(self, to: NodeId, candidates: list[NodeId]) -> NodeId:
        """The candidate closest to ``to`` (ties broken by node id)."""
        if not candidates:
            raise RoutingError("closest() needs at least one candidate")
        row = self._dist[to]
        return min(candidates, key=lambda node: (row[node], node))

    def farthest_first(
        self, frm: NodeId, candidates: list[NodeId]
    ) -> list[NodeId]:
        """Candidates ordered by decreasing distance from ``frm``.

        The placement algorithm "attempts to place the replica on the
        farthest among all qualified candidates" (Section 4.2.1); ties are
        broken by ascending node id for determinism.
        """
        row = self._dist[frm]
        return sorted(candidates, key=lambda node: (-row[node], node))

    def _distance_row_sums(self) -> list[int]:
        """Per-node distance-row totals, computed once and cached."""
        sums = self._row_sums
        if sums is None:
            sums = self._row_sums = [sum(row) for row in self._dist]
        return sums

    def min_mean_distance_node(self) -> NodeId:
        """The node with minimum mean hop distance to all other nodes.

        The paper co-locates the redirector "with a node whose average
        distance in hops to other nodes is minimum" (Section 6.1).
        """
        sums = self._distance_row_sums()
        best_node = 0
        best_total = sums[0]
        for node in range(1, self.num_nodes):
            total = sums[node]
            if total < best_total:
                best_total = total
                best_node = node
        return best_node

    def mean_distance(self) -> float:
        """Mean hop distance over all ordered pairs of distinct nodes."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return sum(self._distance_row_sums()) / (n * (n - 1))

    def snapshot(self) -> "RoutingDatabase":
        """A frozen copy of the current routes (staleness modelling).

        The path index is shared: it is a pure function of the (immutable)
        topology, so the clone sees exactly the routes the original does.
        """
        clone = object.__new__(RoutingDatabase)
        clone._topology = self._topology
        clone._index = self._index
        clone._dist = [row[:] for row in self._dist]
        clone._row_sums = None
        return clone
