"""Single-object tree-placement instances (the Rehn-Sonigo formulation).

An instance is a rooted tree in which every node may carry client demand
(integer request units), a server capacity (the most units a replica
placed there can serve), and a QoS bound (the most hops a unit issued at
that node tolerates to its serving replica).  Under the *Closest*
allocation policy demand flows toward the root and is absorbed by the
first replica on the path — the policy the INRIA tree-placement papers
show admits exact bottom-up solutions, and a faithful offline analogue
of the paper's proximity-driven replication.

The placement *cost* is the sum of per-node placement costs over chosen
replica sites (uniform 1.0 by default, i.e. the replica count); distance
and QoS enter as feasibility constraints, not the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ConfigurationError
from repro.topology.generators import node_capacities, node_qos
from repro.topology.graph import Topology

#: Slack value meaning "no unserved demand flowing up" (infinite QoS
#: budget).  Large enough that per-edge decrements never exhaust it.
INF_SLACK = 1 << 30


@dataclass(frozen=True)
class TreeInstance:
    """One rooted, annotated tree-placement problem."""

    #: ``parent[v]`` for every node (``-1`` for the root).
    parent: tuple[int, ...]
    #: ``children[v]`` in ascending node order.
    children: tuple[tuple[int, ...], ...]
    #: Breadth-first node order from the root (parents before children).
    order: tuple[int, ...]
    #: Hop distance from each node to the root.
    depth: tuple[int, ...]
    #: Integer request units issued at each node.
    demand: tuple[int, ...]
    #: Most units a replica placed at each node can serve.
    capacity: tuple[int, ...]
    #: Most hops each node's units tolerate to their serving replica.
    qos: tuple[int, ...]
    #: Cost of opening a replica at each node (uniform 1 = replica count).
    placement_cost: tuple[float, ...]
    root: int = 0

    def __post_init__(self) -> None:
        n = len(self.parent)
        for name in ("children", "order", "depth", "demand", "capacity", "qos",
                     "placement_cost"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"{name} must have {n} entries")
        if not 0 <= self.root < n or self.parent[self.root] != -1:
            raise ConfigurationError("root must be a node with parent -1")
        if any(d < 0 for d in self.demand):
            raise ConfigurationError("demands must be non-negative")
        if any(c < 0 for c in self.capacity):
            raise ConfigurationError("capacities must be non-negative")
        if any(q < 0 for q in self.qos):
            raise ConfigurationError("qos bounds must be non-negative")

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def total_demand(self) -> int:
        return sum(self.demand)

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        demand: Mapping[int, float],
        *,
        root: int = 0,
        capacity: Mapping[int, float] | None = None,
        qos: Mapping[int, int] | None = None,
        placement_cost: Mapping[int, float] | None = None,
        demand_unit: float = 1.0,
    ) -> "TreeInstance":
        """Build an instance from an (annotated) tree topology.

        ``capacity``/``qos`` default to the topology's node annotations
        (see :func:`repro.topology.generators.node_capacities`).
        ``demand_unit`` quantises: demands round *up* and capacities
        round *down* to whole units, so a coarse instance is never
        easier than the exact one (its optimum upper-bounds the exact
        optimum's cost).
        """
        n = topology.num_nodes
        if topology.num_links != n - 1:
            raise ConfigurationError(
                f"{topology.name!r} is not a tree "
                f"({topology.num_links} edges on {n} nodes)"
            )
        if demand_unit <= 0:
            raise ConfigurationError("demand unit must be positive")
        parent = [-1] * n
        depth = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        order = [root]
        seen = {root}
        for node in order:
            for neighbour in topology.neighbors(node):
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                parent[neighbour] = node
                depth[neighbour] = depth[node] + 1
                children[node].append(neighbour)
                order.append(neighbour)
        if len(order) != n:  # pragma: no cover - Topology enforces connectivity
            raise ConfigurationError("tree walk did not reach every node")
        caps = capacity if capacity is not None else node_capacities(topology)
        bounds = qos if qos is not None else node_qos(topology)
        costs = placement_cost or {}
        return cls(
            parent=tuple(parent),
            children=tuple(tuple(kids) for kids in children),
            order=tuple(order),
            depth=tuple(depth),
            demand=tuple(
                int(math.ceil(float(demand.get(v, 0)) / demand_unit))
                for v in range(n)
            ),
            capacity=tuple(
                int(float(caps.get(v, 0)) / demand_unit) for v in range(n)
            ),
            qos=tuple(int(bounds.get(v, 0)) for v in range(n)),
            placement_cost=tuple(
                float(costs.get(v, 1.0)) for v in range(n)
            ),
            root=root,
        )


@dataclass(frozen=True)
class PlacementEvaluation:
    """The Closest-policy outcome of one candidate replica set."""

    feasible: bool
    cost: float
    #: Units absorbed at each replica site.
    loads: Mapping[int, int] = field(default_factory=dict)
    #: Serving replica for each node with demand.
    assignment: Mapping[int, int] = field(default_factory=dict)
    reason: str = ""


def evaluate_tree_placement(
    instance: TreeInstance, replicas: Iterable[int]
) -> PlacementEvaluation:
    """Evaluate a replica set under the Closest allocation policy.

    Every demand unit is served by the first replica on its node's path
    to the root — the placement fully determines the assignment.  The
    set is infeasible when some demand reaches the root unserved, a
    unit's hop count exceeds its node's QoS bound, or a replica absorbs
    more units than its capacity.
    """
    rset = set(replicas)
    loads: dict[int, int] = {r: 0 for r in rset}
    assignment: dict[int, int] = {}
    for v in range(instance.num_nodes):
        if instance.demand[v] == 0:
            continue
        node, hops = v, 0
        server = None
        while True:
            if node in rset:
                server = node
                break
            if node == instance.root:
                break
            node = instance.parent[node]
            hops += 1
        if server is None:
            return PlacementEvaluation(
                False, math.inf, reason=f"demand at {v} reaches the root unserved"
            )
        if hops > instance.qos[v]:
            return PlacementEvaluation(
                False, math.inf,
                reason=f"demand at {v} served {hops} hops away (qos {instance.qos[v]})",
            )
        loads[server] += instance.demand[v]
        assignment[v] = server
    for r in rset:
        if loads[r] > instance.capacity[r]:
            return PlacementEvaluation(
                False, math.inf,
                reason=f"replica at {r} absorbs {loads[r]} > capacity "
                f"{instance.capacity[r]}",
            )
    cost = sum(instance.placement_cost[r] for r in rset)
    return PlacementEvaluation(True, cost, loads=loads, assignment=assignment)
