"""A faithful-in-spirit ADR comparator (Wolfson, Jajodia, Huang — TODS 1997).

The paper's related-work section argues that the Adaptive Data
Replication protocol is unsuited to Internet hosting: it "imposes logical
tree structures on hosting servers and requires that requests travel
along the edges of these trees", suffers "a mis-match between the logical
and physical topology", assumes requests are "always serviced by the
closest replica" (so no load sharing), and "objects are replicated only
between neighbor servers, which would result in high delays and overheads
for creating distant replicas" with contiguous replica sets.

This module implements ADR's core machinery so those claims can be
measured rather than asserted:

* one global logical tree (BFS tree rooted at the network's min-mean-
  distance node) spans the hosting servers;
* each object's replica set is a **connected subtree**, initially its
  home node;
* a read enters at its gateway, travels along tree edges to the closest
  replica (in tree distance), and the response returns the same way —
  each logical edge costs its *physical* shortest-path route, which is
  exactly the paper's topology-mismatch critique;
* writes (provider updates) propagate over the replica subtree's edges;
* periodically every replica node runs ADR's three tests with the read/
  write counts observed since the last round:
  - **expansion**: a fringe replica expands to a non-replica tree
    neighbour that sent it more reads than it saw writes from elsewhere;
  - **contraction**: a leaf of the replica subtree drops itself if the
    writes it received exceed the reads it serviced;
  - **switch**: a singleton replica migrates to the neighbour that sent
    it more requests than all other neighbours and local clients
    combined.

Reads here are cache-miss requests exactly as in the host protocol; the
read-one/write-all cost model is ADR's own.  :func:`run_adr` drives one
under a scenario's demand (the scorecard's ``adr.*`` claims,
:mod:`repro.analysis.claims`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.network.message import MessageClass
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngFactory
from repro.topology.uunet import uunet_backbone
from repro.types import NodeId, ObjectId, Time
from repro.workloads import SCENARIO_WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.config import ScenarioConfig


class LogicalTree:
    """A BFS spanning tree over the backbone, with tree-path helpers."""

    def __init__(self, routes: RoutingDatabase, root: NodeId | None = None) -> None:
        topology = routes.topology
        self.root = routes.min_mean_distance_node() if root is None else root
        n = topology.num_nodes
        self.parent: list[int] = [-1] * n
        self.depth: list[int] = [-1] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.depth[self.root] = 0
        queue: deque[int] = deque([self.root])
        while queue:
            node = queue.popleft()
            for neighbor in topology.neighbors(node):
                if self.depth[neighbor] == -1:
                    self.depth[neighbor] = self.depth[node] + 1
                    self.parent[neighbor] = node
                    self.children[node].append(neighbor)
                    queue.append(neighbor)
        if any(d == -1 for d in self.depth):
            raise ProtocolError("topology disconnected; no spanning tree")
        #: Physical hop cost of each (child, parent) tree edge.
        self._edge_cost = {
            (node, self.parent[node]): routes.distance(node, self.parent[node])
            for node in range(n)
            if self.parent[node] != -1
        }

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """Tree neighbours (parent + children)."""
        result = list(self.children[node])
        if self.parent[node] != -1:
            result.append(self.parent[node])
        return result

    def edge_cost(self, a: NodeId, b: NodeId) -> int:
        """Physical hops a message pays to cross logical edge (a, b)."""
        cost = self._edge_cost.get((a, b)) or self._edge_cost.get((b, a))
        if cost is None:
            raise ProtocolError(f"({a}, {b}) is not a tree edge")
        return cost

    def path(self, a: NodeId, b: NodeId) -> list[NodeId]:
        """Tree path from ``a`` to ``b``, inclusive."""
        up_a, up_b = [a], [b]
        x, y = a, b
        while self.depth[x] > self.depth[y]:
            x = self.parent[x]
            up_a.append(x)
        while self.depth[y] > self.depth[x]:
            y = self.parent[y]
            up_b.append(y)
        while x != y:
            x, y = self.parent[x], self.parent[y]
            up_a.append(x)
            up_b.append(y)
        return up_a + up_b[-2::-1]

    def path_cost(self, a: NodeId, b: NodeId) -> int:
        """Physical hops along the logical tree path a..b."""
        path = self.path(a, b)
        return sum(self.edge_cost(u, v) for u, v in zip(path, path[1:]))


class AdrObjectState:
    """One object's replica subtree and its per-round statistics."""

    __slots__ = ("replicas", "reads_from", "writes_seen", "reads_local")

    def __init__(self, home: NodeId) -> None:
        #: The connected replica subtree.
        self.replicas: set[NodeId] = {home}
        #: reads_from[replica][tree_neighbor] = reads arriving via that edge.
        self.reads_from: dict[NodeId, dict[NodeId, int]] = {home: {}}
        #: Writes each replica saw this round.
        self.writes_seen: dict[NodeId, int] = {home: 0}
        #: Reads serviced for co-located clients (no tree edge).
        self.reads_local: dict[NodeId, int] = {home: 0}

    def reset_counts(self) -> None:
        for replica in self.replicas:
            self.reads_from[replica] = {}
            self.writes_seen[replica] = 0
            self.reads_local[replica] = 0

    def add_replica(self, node: NodeId) -> None:
        self.replicas.add(node)
        self.reads_from.setdefault(node, {})
        self.writes_seen.setdefault(node, 0)
        self.reads_local.setdefault(node, 0)

    def remove_replica(self, node: NodeId) -> None:
        self.replicas.discard(node)
        self.reads_from.pop(node, None)
        self.writes_seen.pop(node, None)
        self.reads_local.pop(node, None)


class AdrSystem:
    """The ADR comparator platform.

    Bandwidth-comparable to :class:`~repro.core.protocol.HostingSystem`:
    reads and writes are charged in byte-hops over the *physical* routes
    underlying each logical tree edge.  Service is not queued (ADR is a
    placement algorithm; the comparison of interest is traffic).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        num_objects: int,
        object_size: int = 12 * 1024,
        request_bytes: int = 350,
        adjustment_interval: float = 100.0,
        tree_root: NodeId | None = None,
    ) -> None:
        if num_objects < 1:
            raise ProtocolError("need at least one object")
        self.sim = sim
        self.network = network
        self.routes = network.routes
        self.tree = LogicalTree(self.routes, tree_root)
        self.num_objects = num_objects
        self.object_size = object_size
        self.request_bytes = request_bytes
        self.objects: dict[ObjectId, AdrObjectState] = {}
        self.adjustment_interval = adjustment_interval
        self._process: PeriodicProcess | None = None
        self.reads = 0
        self.writes = 0
        self.read_byte_hops = 0.0
        #: Replica-set changes, for churn comparison.
        self.expansions = 0
        self.contractions = 0
        self.switches = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def initialize_round_robin(self) -> None:
        n = self.routes.num_nodes
        for obj in range(self.num_objects):
            self.objects[obj] = AdrObjectState(obj % n)

    def start(self) -> None:
        if self._process is not None:
            raise ProtocolError("start() called twice")
        self._process = PeriodicProcess(
            self.sim, self.adjustment_interval, self._adjust_all
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _state(self, obj: ObjectId) -> AdrObjectState:
        try:
            return self.objects[obj]
        except KeyError:
            raise ProtocolError(f"object {obj} not initialised") from None

    def _closest_replica(self, state: AdrObjectState, gateway: NodeId) -> NodeId:
        """ADR services every request at the tree-closest replica."""
        return min(
            state.replicas,
            key=lambda replica: (self.tree.path_cost(gateway, replica), replica),
        )

    def submit_read(self, gateway: NodeId, obj: ObjectId) -> int:
        """A client read; returns the physical hop cost of the response.

        The request travels the tree path gateway -> replica and the
        object travels back the same way ("requests travel along the
        edges of these trees").
        """
        state = self._state(obj)
        replica = self._closest_replica(state, gateway)
        path = self.tree.path(gateway, replica)
        hops = sum(
            self.tree.edge_cost(u, v) for u, v in zip(path, path[1:])
        )
        # Request and response byte accounting over each tree edge's
        # physical route.
        for u, v in zip(path, path[1:]):
            self.network.account(u, v, self.request_bytes, MessageClass.REQUEST)
            self.network.account(v, u, self.object_size, MessageClass.RESPONSE)
        # Statistics: the replica records the tree direction the read
        # came from (or a local hit).
        if replica == gateway:
            state.reads_local[replica] += 1
        else:
            toward_client = path[path.index(replica) - 1]
            counts = state.reads_from[replica]
            counts[toward_client] = counts.get(toward_client, 0) + 1
        self.reads += 1
        self.read_byte_hops += hops * self.object_size
        return hops

    def submit_write(self, obj: ObjectId) -> int:
        """A provider update: written to every replica over the subtree.

        Returns the physical hop cost of the propagation.  Every replica
        sees the write (the statistic the contraction test consumes).
        """
        state = self._state(obj)
        hops = 0
        # Propagate over the replica subtree's edges (each pays its
        # physical cost); the subtree is connected by construction.
        for replica in state.replicas:
            parent = self.tree.parent[replica]
            if parent != -1 and parent in state.replicas:
                cost = self.tree.edge_cost(replica, parent)
                hops += cost
                self.network.account(
                    parent, replica, self.object_size, MessageClass.UPDATE
                )
            state.writes_seen[replica] += 1
        self.writes += 1
        return hops

    # ------------------------------------------------------------------
    # The ADR tests
    # ------------------------------------------------------------------

    def _adjust_all(self, now: Time) -> None:
        for obj in self.objects:
            self.adjust_object(obj)

    def adjust_object(self, obj: ObjectId) -> None:
        """Run expansion, contraction and switch tests for one object."""
        state = self._state(obj)
        replicas = set(state.replicas)

        # Expansion: each replica offers copies to non-replica tree
        # neighbours that sent it more reads than it saw writes.
        for replica in sorted(replicas):
            for neighbor in self.tree.neighbors(replica):
                if neighbor in state.replicas:
                    continue
                reads = state.reads_from.get(replica, {}).get(neighbor, 0)
                writes = state.writes_seen.get(replica, 0)
                if reads > writes:
                    state.add_replica(neighbor)
                    self.expansions += 1
                    self.network.account(
                        replica, neighbor, self.object_size, MessageClass.RELOCATION
                    )

        # Contraction: a leaf of the subtree drops itself if writes
        # exceeded the reads it serviced (never the last replica).
        for replica in sorted(replicas):
            if replica not in state.replicas or len(state.replicas) == 1:
                continue
            subtree_neighbors = [
                n for n in self.tree.neighbors(replica) if n in state.replicas
            ]
            if len(subtree_neighbors) != 1:
                continue  # not a leaf of the replica subtree
            serviced = state.reads_local.get(replica, 0) + sum(
                state.reads_from.get(replica, {}).values()
            )
            if state.writes_seen.get(replica, 0) > serviced:
                state.remove_replica(replica)
                self.contractions += 1

        # Switch: a singleton replica migrates toward its dominant
        # request direction.
        if len(state.replicas) == 1:
            (replica,) = state.replicas
            counts = state.reads_from.get(replica, {})
            local = state.reads_local.get(replica, 0)
            if counts:
                best = max(sorted(counts), key=lambda n: counts[n])
                others = local + sum(
                    c for n, c in counts.items() if n != best
                ) + state.writes_seen.get(replica, 0)
                if counts[best] > others:
                    state.remove_replica(replica)
                    state.add_replica(best)
                    self.switches += 1
                    self.network.account(
                        replica, best, self.object_size, MessageClass.RELOCATION
                    )

        state.reset_counts()
        self._check_connected(state)

    def _check_connected(self, state: AdrObjectState) -> None:
        """ADR invariant: the replica set is a connected subtree."""
        replicas = state.replicas
        if not replicas:
            raise ProtocolError("ADR replica set became empty")
        start = next(iter(replicas))
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in self.tree.neighbors(node):
                if neighbor in replicas and neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if seen != replicas:
            raise ProtocolError(f"ADR replica set disconnected: {replicas}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_replicas(self) -> int:
        return sum(len(state.replicas) for state in self.objects.values())

    def replicas_per_object(self) -> float:
        return self.total_replicas() / self.num_objects

    def mean_read_cost(self) -> float:
        """Mean physical byte-hops per read (the comparison metric)."""
        return self.read_byte_hops / self.reads if self.reads else 0.0


def run_adr(config: "ScenarioConfig", *, write_fraction: float) -> tuple[AdrSystem, float]:
    """Drive ADR with a scenario's per-gateway demand, a provider write in
    place of a read at probability ``write_fraction``; return the system
    and its mean byte-hops per read over the run's final third."""
    sim = Simulator()
    topology = uunet_backbone(config.topology_seed)
    network = Network(sim, RoutingDatabase(topology), track_links=False)
    system = AdrSystem(
        sim,
        network,
        num_objects=config.num_objects,
        object_size=config.object_size,
        adjustment_interval=config.protocol.placement_interval,
    )
    system.initialize_round_robin()
    system.start()
    rng_factory = RngFactory(config.seed)
    workload = SCENARIO_WORKLOADS[config.workload](config.num_objects, topology, rng_factory)
    rng = rng_factory.stream("adr-driver")
    interval = 1.0 / config.node_request_rate
    for gateway in topology.nodes:
        t = rng.random() * interval
        while t < config.duration:
            obj = workload.sample(gateway, rng)
            if rng.random() < write_fraction:
                sim.schedule_at(t, system.submit_write, obj)
            else:
                sim.schedule_at(t, system.submit_read, gateway, obj)
            t += interval
    sim.run(until=config.duration * 2 / 3)
    reads, byte_hops = system.reads, system.read_byte_hops
    sim.run(until=config.duration)
    system.stop()
    tail_reads = system.reads - reads
    return system, (system.read_byte_hops - byte_hops) / tail_reads if tail_reads else 0.0
