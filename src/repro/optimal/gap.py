"""The optimality-gap harness: protocol vs offline-optimal placement.

For one seeded workload the harness runs the paper protocol and any set
of baseline strategies (resolved through the registry in
:mod:`repro.baselines`), records the demand trace each run actually
served, and computes an *offline-optimal* cost for that same trace:

* **Request-assignment oracle** — an exact transportation problem over
  the serviced requests.  Each object's candidate hosts are exactly the
  servers that served it in that run, per-request cost is the backbone
  distance from serving host to gateway, and per-host capacity is the
  larger of the nominal budget (``capacity x duration``) and the load
  the run actually put there.  The run's own assignment is feasible for
  this problem by construction, so ``oracle_cost <= protocol_cost``
  *structurally* — every reported ``gap_ratio`` is >= 1.
* **Tree replica oracle** — on tree topologies, the exact DP of
  :mod:`repro.optimal.tree_dp` gives the minimum replica count that
  could have served each hot object's observed demand under the Closest
  policy (reported alongside the protocol's replica counts; demand is
  quantised, see ``TreeInstance.from_topology``).

What the oracle sees that the protocol cannot: the complete demand
trace before placing anything, with no detection delays, no stale load
reports and no migration costs.  The gap therefore bounds the *price of
online operation* — protocol overhead plus reaction lag — not mere
implementation slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.network.faults import FaultConfig
from repro.scenarios.config import ScenarioConfig
from repro.topology import (
    balanced_tree_topology,
    node_qos,
    uunet_backbone,
)
from repro.topology.graph import Topology
from repro.optimal.instance import TreeInstance
from repro.optimal.transport import solve_transport
from repro.optimal.tree_dp import solve_tree_placement
from repro.types import NodeId, ObjectId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.host import HostServer
    from repro.routing.routes_db import RoutingDatabase
    from repro.scenarios.runner import ScenarioResult


class DemandTrace:
    """Served observer: the serviced demand of one run, aggregated.

    Records, per object, how many requests each gateway had serviced and
    by which servers — plus the run's total assignment cost: the response
    hops of every serviced request, i.e. the backbone distance from
    serving host to gateway (the distance matrix the oracle prices with).
    """

    def __init__(self) -> None:
        #: obj -> gateway -> serviced request count.
        self.demand: dict[ObjectId, dict[NodeId, int]] = {}
        #: obj -> servers that serviced at least one of its requests.
        self.servers: dict[ObjectId, set[NodeId]] = {}
        #: host -> serviced request count (the run's realised loads).
        self.served_by: dict[NodeId, int] = {}
        #: Total distance-weighted assignment cost of the run.
        self.cost = 0.0
        #: Serviced request count.
        self.serviced = 0

    def __call__(
        self,
        obj: ObjectId,
        gateway: NodeId,
        server: NodeId,
        issued_at: Time,
        response_hops: int,
    ) -> None:
        per_gateway = self.demand.setdefault(obj, {})
        per_gateway[gateway] = per_gateway.get(gateway, 0) + 1
        self.servers.setdefault(obj, set()).add(server)
        self.served_by[server] = self.served_by.get(server, 0) + 1
        self.cost += response_hops
        self.serviced += 1


class CapacityViolationCounter:
    """Measurement observer: host-intervals above nominal capacity.

    The protocol reacts to load with a lag (measurement intervals, stale
    board reports); every measurement tick whose interval load exceeded
    the host's service capacity is one interval a clairvoyant placement
    could have avoided.  ``violations`` counts those host-intervals;
    ``intervals`` counts all observed host-intervals.
    """

    def __init__(self) -> None:
        self.violations = 0
        self.intervals = 0

    def __call__(self, host: "HostServer", now: Time) -> None:
        self.intervals += 1
        capacity = 1.0 / host.service_time
        if host.measured_load > capacity * (1.0 + 1e-9):
            self.violations += 1


@dataclass(frozen=True)
class OracleBound:
    """The offline request-assignment optimum for one run's trace."""

    cost: float
    #: The run's own assignment cost over the same trace.
    protocol_cost: float
    #: Requests covered (equals the run's serviced count).
    requests: int
    #: Objects whose demand entered the flow network (the rest were
    #: single-server and force-assigned).
    contested_objects: int

    @property
    def gap_ratio(self) -> float:
        """``protocol_cost / oracle_cost`` (1.0 when both are zero)."""
        if self.cost <= 0:
            return 1.0 if self.protocol_cost <= 0 else math.inf
        return self.protocol_cost / self.cost


def oracle_lower_bound(
    trace: DemandTrace,
    routes: "RoutingDatabase",
    *,
    capacity: float,
    duration: float,
) -> OracleBound:
    """Exact offline optimum for the trace's request assignment.

    Candidate hosts per object are the servers that actually serviced it
    (replica placement the run itself established and paid for); host
    budgets are ``max(ceil(capacity x duration) + 1, realised load)`` so
    the run's own assignment is always feasible and the optimum can only
    be cheaper.  Single-server objects are force-assigned; only objects
    with a genuine server choice enter the min-cost-flow network.
    """
    budget = int(math.ceil(capacity * duration)) + 1
    capacities = {
        host: float(max(budget, load)) for host, load in trace.served_by.items()
    }
    forced_cost = 0.0
    supplies: list[tuple[float, dict[int, float]]] = []
    contested: set[ObjectId] = set()
    for obj in sorted(trace.demand):
        hosts = sorted(trace.servers[obj])
        for gateway, count in sorted(trace.demand[obj].items()):
            if len(hosts) == 1:
                host = hosts[0]
                forced_cost += count * routes.distance(gateway, host)
                capacities[host] -= count
            else:
                contested.add(obj)
                supplies.append(
                    (
                        float(count),
                        {h: float(routes.distance(gateway, h)) for h in hosts},
                    )
                )
    # Forced deductions cannot exhaust a budget the realised load fit in.
    capacities = {h: max(0.0, c) for h, c in capacities.items()}
    flow_cost = 0.0
    if supplies:
        plan = solve_transport(supplies, capacities)
        if not plan.feasible:  # pragma: no cover - feasible by construction
            raise ConfigurationError("oracle transport infeasible")
        flow_cost = plan.cost
    return OracleBound(
        cost=forced_cost + flow_cost,
        protocol_cost=trace.cost,
        requests=trace.serviced,
        contested_objects=len(contested),
    )


def tree_replica_gap(
    trace: DemandTrace,
    topology: Topology,
    result: "ScenarioResult",
    *,
    top_objects: int = 8,
    max_units: int = 400,
) -> dict[str, float | int | None]:
    """Exact minimum replica counts for the hottest objects, on a tree.

    For each of the ``top_objects`` hottest objects, solve the tree DP
    on the observed per-gateway demand (quantised to at most
    ``max_units`` units) with per-node serving budget ``capacity x
    duration`` and the topology's QoS annotations, and compare the
    summed optimal replica count against the protocol's final replica
    counts for the same objects.
    """
    if topology.num_links != topology.num_nodes - 1:
        raise ConfigurationError(f"{topology.name!r} is not a tree")
    config = result.config
    budget = config.capacity * config.duration
    ranked = sorted(
        trace.demand.items(), key=lambda item: (-sum(item[1].values()), item[0])
    )[:top_objects]
    qos = node_qos(topology)
    oracle_replicas = 0
    protocol_replicas = 0
    solved = 0
    for obj, demand in ranked:
        total = sum(demand.values())
        unit = max(1.0, total / max_units)
        instance = TreeInstance.from_topology(
            topology,
            demand,
            capacity={v: budget for v in range(topology.num_nodes)},
            qos=qos,
            demand_unit=unit,
        )
        placement = solve_tree_placement(instance)
        if placement is None:  # pragma: no cover - root budget covers demand
            continue
        solved += 1
        oracle_replicas += len(placement.replicas)
        protocol_replicas += len(
            result.system.redirectors.for_object(obj).replica_hosts(obj)
        )
    return {
        "objects": solved,
        "oracle_replicas": oracle_replicas,
        "protocol_replicas": protocol_replicas,
        "replica_ratio": (
            protocol_replicas / oracle_replicas if oracle_replicas else None
        ),
    }


# ----------------------------------------------------------------------
# Benchmark driver
# ----------------------------------------------------------------------

#: Strategies a default gap run compares (ADR excluded: different system
#: class, see the registry docstring).
DEFAULT_STRATEGIES = ("paper", "static", "availability-aware")


@dataclass(frozen=True)
class GapSettings:
    """One gap-benchmark campaign: topologies x loads x faults x strategies."""

    #: Topology specs: "uunet" (the backbone), "uunet-slice" (first 13
    #: nodes' subgraph re-solved as a backbone seed variant) or
    #: "ktree-B-H" (balanced tree, branching B, height H).
    topologies: tuple[str, ...] = field(
        default=("ktree-3-2", "uunet"), metadata={"key": "gap.topology"}
    )
    #: Multipliers on the base per-gateway request rate.
    load_scales: tuple[float, ...] = field(
        default=(0.5, 1.0, 2.0), metadata={"key": "gap.load_scale"}
    )
    #: Host MTBF values; ``None`` = fault-free.  MTTR is ``mtbf/10``.
    fault_mtbfs: tuple[float | None, ...] = field(
        default=(None, 600.0), metadata={"key": "gap.fault"}
    )
    strategies: tuple[str, ...] = field(
        default=DEFAULT_STRATEGIES, metadata={"key": "gap.strategy"}
    )
    seed: int = field(default=1, metadata={"key": "gap.seed"})
    workload: str = field(default="zipf", metadata={"key": "gap.workload"})
    duration: float = field(default=300.0, metadata={"key": "gap.duration"})
    num_objects: int = field(default=400, metadata={"key": "gap.objects"})
    node_request_rate: float = field(default=4.0, metadata={"key": "gap.rate"})
    capacity: float = field(default=20.0, metadata={"key": "gap.capacity"})
    #: Tree-DP replica gap: hottest objects per point (trees only).
    top_objects: int = field(default=8, metadata={"key": "gap.top_objects"})

    def base_config(self) -> ScenarioConfig:
        return ScenarioConfig(
            name="optgap",
            workload=self.workload,
            seed=self.seed,
            duration=self.duration,
            num_objects=self.num_objects,
            node_request_rate=self.node_request_rate,
            capacity=self.capacity,
        )


def quick_settings() -> GapSettings:
    """The CI-sized campaign (used by ``--quick`` and the smoke gate)."""
    return GapSettings(
        topologies=("ktree-2-2", "uunet-slice-13"),
        load_scales=(0.5, 1.0, 2.0),
        fault_mtbfs=(None, 300.0),
        strategies=("paper", "static"),
        duration=120.0,
        num_objects=120,
        node_request_rate=2.0,
        capacity=10.0,
    )


def uunet_slice(num_nodes: int, seed: int) -> Topology:
    """A connected ``num_nodes``-node slice of the synthetic backbone.

    Breadth-first from node 0, keeping the induced subgraph of the first
    ``num_nodes`` nodes reached (connected by construction) and
    relabelling them ``0..n-1`` in visit order.  Regions carry over, so
    regional workloads still work on the slice.
    """
    full = uunet_backbone(seed)
    if not 1 <= num_nodes <= full.num_nodes:
        raise ConfigurationError(
            f"slice size must be in 1..{full.num_nodes}, got {num_nodes}"
        )
    visit = [0]
    seen = {0}
    for node in visit:
        if len(visit) >= num_nodes:
            break
        for neighbour in full.neighbors(node):
            if neighbour not in seen and len(visit) < num_nodes:
                seen.add(neighbour)
                visit.append(neighbour)
    relabel = {old: new for new, old in enumerate(visit)}
    edges = [(relabel[u], relabel[v]) for u, v in full.links() if u in seen and v in seen]
    regions = None
    if full.has_regions:
        regions = {relabel[old]: full.region(old) for old in visit}
    return Topology(
        num_nodes, edges, regions=regions, name=f"uunet-slice-{num_nodes}-s{seed}"
    )


def make_gap_topology(spec: str, seed: int) -> Topology | None:
    """Resolve a topology spec string (``None`` = the default backbone)."""
    if spec == "uunet":
        return None
    if spec.startswith("ktree-"):
        try:
            _, branching, height = spec.split("-")
            return balanced_tree_topology(int(branching), int(height))
        except ValueError:
            raise ConfigurationError(
                f"bad tree spec {spec!r} (want ktree-<branching>-<height>)"
            ) from None
    if spec.startswith("uunet-slice"):
        tail = spec.removeprefix("uunet-slice")
        size = 13
        if tail:
            try:
                size = int(tail.removeprefix("-"))
            except ValueError:
                raise ConfigurationError(
                    f"bad slice spec {spec!r} (want uunet-slice-<nodes>)"
                ) from None
        return uunet_slice(size, seed)
    raise ConfigurationError(
        f"unknown gap topology {spec!r} (want uunet, uunet-slice-N or ktree-B-H)"
    )


def run_gap_point(
    config: ScenarioConfig,
    *,
    topology: Topology | None = None,
    top_objects: int = 8,
) -> dict[str, object]:
    """Run one strategy at one (load, fault) point and report its gap."""
    from repro.scenarios.runner import run_scenario, scenario_metrics

    if topology is None:
        topology = uunet_backbone(config.topology_seed)
    is_tree = topology.num_links == topology.num_nodes - 1
    violations = CapacityViolationCounter()
    # The oracle prices with the run's routing distances; build them the
    # same way the runner does (RoutingDatabase is deterministic per topology).
    from repro.routing.routes_db import RoutingDatabase

    routes = RoutingDatabase(topology)
    trace = DemandTrace()
    result = run_scenario(
        config,
        topology=topology,
        served_observers=(trace,),
        measurement_observers=(violations,),
    )
    bound = oracle_lower_bound(
        trace, routes, capacity=config.capacity, duration=config.duration
    )
    metrics = scenario_metrics(result)
    point: dict[str, object] = {
        "strategy": config.strategy,
        "requests_serviced": trace.serviced,
        "protocol_cost": bound.protocol_cost,
        "oracle_cost": bound.cost,
        "gap_ratio": bound.gap_ratio,
        "contested_objects": bound.contested_objects,
        "capacity_violations": violations.violations,
        "capacity_intervals": violations.intervals,
        "replicas_per_object": metrics["replicas_per_object"],
        "requests_completed": metrics["requests_completed"],
        "requests_dropped": metrics["requests_dropped"],
        "relocations": metrics["relocations"],
    }
    if is_tree:
        point["tree_gap"] = tree_replica_gap(
            trace, topology, result, top_objects=top_objects
        )
    return point


def run_gap_benchmark(
    settings: GapSettings, *, progress=None
) -> dict[str, object]:
    """The full campaign: every topology x load x fault x strategy point.

    Every point at one (topology, load, fault) coordinate replays the
    *same* seeded workload — only the strategy differs — so gap ratios
    are comparable across strategies.  Returns the ``BENCH_optgap.json``
    payload.
    """
    base = settings.base_config()
    points: list[dict[str, object]] = []
    for spec in settings.topologies:
        topology = make_gap_topology(spec, base.topology_seed)
        for load_scale in settings.load_scales:
            for mtbf in settings.fault_mtbfs:
                faults = FaultConfig()
                if mtbf is not None:
                    faults = FaultConfig(
                        enabled=True, mtbf=float(mtbf), mttr=float(mtbf) / 10.0
                    )
                for strategy in settings.strategies:
                    config = base.replace(
                        node_request_rate=base.node_request_rate * load_scale,
                        strategy=strategy,
                        faults=faults,
                    )
                    if progress is not None:
                        progress(spec, load_scale, mtbf, strategy)
                    point = run_gap_point(
                        config,
                        topology=topology,
                        top_objects=settings.top_objects,
                    )
                    point.update(
                        topology=spec,
                        load_scale=load_scale,
                        fault_mtbf=mtbf,
                    )
                    points.append(point)
    return {
        "schema": "optgap-v1",
        "benchmark": "optimality_gap",
        "settings": {
            "topologies": list(settings.topologies),
            "load_scales": list(settings.load_scales),
            "fault_mtbfs": list(settings.fault_mtbfs),
            "strategies": list(settings.strategies),
            "seed": settings.seed,
            "workload": settings.workload,
            "duration": settings.duration,
            "num_objects": settings.num_objects,
            "node_request_rate": settings.node_request_rate,
            "capacity": settings.capacity,
        },
        "points": points,
    }
