"""Build and run one scenario; collect the paper's metrics.

``run_scenario`` is the single entry point used by the examples, the
integration tests and the claims scorecard: it assembles the simulator, the
synthetic UUNET backbone, the hosting system (or a baseline variant),
the workload generators and the metric collectors, runs to the horizon,
and returns a :class:`ScenarioResult`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable

from repro.baselines import resolve_strategy
from repro.baselines.closest import ClosestReplicaRedirector
from repro.baselines.round_robin import RoundRobinRedirector
from repro.consistency.plane import ConsistencyPlane
from repro.core.protocol import HostingSystem
from repro.core.redirector import RedirectorService
from repro.errors import ConfigurationError
from repro.failures.injector import FailureInjector
from repro.metrics.adjustment import adjustment_time, equilibrium_level
from repro.metrics.availability import fault_metrics
from repro.metrics.bandwidth import BandwidthCollector
from repro.metrics.latency import LatencyCollector
from repro.metrics.loadstats import LoadCollector
from repro.metrics.replicas import ReplicaCollector
from repro.metrics.staleness import staleness_metrics
from repro.network.faults import FaultPlane
from repro.network.transport import Network
from repro.obs.tracer import DecisionTracer
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.config import DISTRIBUTIONS, ScenarioConfig
from repro.sim.engine import Simulator
from repro.sim.events import DEFAULT_BUCKET_WIDTH
from repro.sim.rng import RngFactory
from repro.topology.graph import Topology
from repro.topology.uunet import uunet_backbone
from repro.workloads import SCENARIO_WORKLOADS
from repro.workloads.base import Workload, attach_generators
from repro.workloads.writes import ProviderWriteGenerator

_DISTRIBUTION_FACTORIES: dict[str, Callable[..., RedirectorService]] = dict(
    zip(
        DISTRIBUTIONS,
        (RedirectorService, RoundRobinRedirector, ClosestReplicaRedirector),
        strict=True,
    )
)


def make_workload(
    config: ScenarioConfig, topology: Topology, rng_factory: RngFactory
) -> Workload:
    """Instantiate the scenario's workload by name."""
    return SCENARIO_WORKLOADS[config.workload](
        config.num_objects, topology, rng_factory
    )


def auto_bucket_width(config: ScenarioConfig, num_nodes: int) -> float:
    """Event-queue bucket width sized to the scenario's event rate.

    Targets a few hundred entries per near bucket: each request costs
    roughly four scheduler events (arrival, host hop, completion,
    response), so the expected event rate is ``nodes x rate x 4``.
    Purely a matter of speed: ordering is exact ``(time, seq)`` at any
    width.
    """
    event_rate = num_nodes * config.node_request_rate * 4.0
    if event_rate <= 0:
        return DEFAULT_BUCKET_WIDTH
    return min(DEFAULT_BUCKET_WIDTH, max(0.002, 256.0 / event_rate))


def build_system(
    config: ScenarioConfig,
    *,
    sim: Simulator | None = None,
    topology: Topology | None = None,
    tracer: DecisionTracer | None = None,
) -> tuple[Simulator, HostingSystem, Workload]:
    """Assemble (but do not run) a scenario's full system.

    ``tracer`` overrides the tracer to attach; with ``config.traced``
    set and no explicit tracer, a fresh :class:`DecisionTracer` of
    ``config.trace_capacity`` is attached (reachable as ``system.tracer``).

    ``config.strategy`` resolves through the baseline registry: its
    build-time overrides (``dynamic``, ``distribution``) are applied
    here and its initial-placement hook, if any, replaces
    ``initialize_round_robin``.  The default "paper" strategy leaves
    every path untouched.
    """
    strategy = resolve_strategy(config.strategy)
    if strategy.overrides:
        config = config.replace(**dict(strategy.overrides))
    topology = topology or uunet_backbone(config.topology_seed)
    if sim is None:
        sim = Simulator(bucket_width=auto_bucket_width(config, topology.num_nodes))
    routes = RoutingDatabase(topology)
    network = Network(
        sim,
        routes,
        hop_delay=config.hop_delay,
        bandwidth=config.bandwidth,
        track_links=config.track_links,
    )
    fault_plane = None
    if config.faults.enabled:
        # The one place the schedules meet the topology: unchecked, an
        # unknown node crashes the injector mid-run or partitions nothing.
        scheduled = [("outage", node) for node, _, _ in config.faults.outages] + [
            ("partition", node)
            for nodes, _, _ in config.faults.partitions
            for node in nodes
        ]
        for what, node in scheduled:
            if node not in topology.nodes:
                raise ConfigurationError(
                    f"{what} names node {node}, but the topology has "
                    f"{topology.num_nodes} nodes (0..{topology.num_nodes - 1})"
                )
        fault_plane = FaultPlane(
            config.faults, RngFactory(config.seed).stream("faults")
        )
        for nodes, at, duration in config.faults.partitions:
            fault_plane.schedule_partition(sim, nodes, at, duration)
    system = HostingSystem(
        sim,
        network,
        config.protocol,
        num_objects=config.num_objects,
        object_size=config.object_size,
        capacity=config.capacity,
        redirector_factory=_DISTRIBUTION_FACTORIES[config.distribution],
        enable_placement=config.dynamic,
        fault_plane=fault_plane,
    )
    if tracer is None and config.traced:
        tracer = DecisionTracer(capacity=config.trace_capacity)
    if tracer is not None:
        system.attach_tracer(tracer)
    if config.consistency.enabled:
        # Before initialize_round_robin(), so the primary-copy manager
        # observes the initial registrations (original copy = primary).
        system.consistency_plane = ConsistencyPlane(
            system,
            config.consistency,
            rng=RngFactory(config.seed).stream("consistency"),
        )
    if strategy.initial_placement is not None:
        strategy.initial_placement(system, config)
    else:
        system.initialize_round_robin()
    rng_factory = RngFactory(config.seed)
    workload = make_workload(config, topology, rng_factory)
    return sim, system, workload


@dataclass
class ScenarioResult:
    """Everything measured during one scenario run."""

    config: ScenarioConfig
    system: HostingSystem
    bandwidth: BandwidthCollector
    latency: LatencyCollector
    loads: LoadCollector
    replicas: ReplicaCollector
    #: The attached :class:`DecisionTracer` (None when the run was untraced).
    trace: DecisionTracer | None = None
    #: The failure injector that drove scheduled outages (None unless the
    #: scenario's fault config scheduled any).
    injector: FailureInjector | None = None
    #: The strategy's attached placer (None unless ``config.strategy``
    #: declares one, e.g. availability-aware).
    placer: object | None = None
    #: What stood the fast lane down when the run started
    #: (``fast_lane_blockers``); empty when it was installed.
    lane_blockers: tuple[str, ...] = ()

    def engine_mode(self) -> str:
        """Which request pipeline carried the run, and if not the fast
        lane, what stood it down."""
        if self.system.fast_lane is not None:
            return "fast lane: installed"
        return "stood down: " + "; ".join(self.lane_blockers)

    # -- Figure 6 -------------------------------------------------------

    def bandwidth_start(self) -> float:
        """Payload byte-hops in the first bucket (the static level)."""
        series = self.bandwidth.payload_series()
        if len(series) < 2:
            raise ConfigurationError("run too short for bandwidth statistics")
        # The first bucket is partially filled by generator phase offsets;
        # average the first two complete-ish buckets for a stable start.
        return max(series.values[0], series.values[1])

    def bandwidth_equilibrium(self) -> float:
        return equilibrium_level(self.bandwidth.payload_series())

    def bandwidth_reduction(self) -> float:
        """Relative payload-bandwidth reduction, start to equilibrium."""
        start = self.bandwidth_start()
        return 1.0 - self.bandwidth_equilibrium() / start if start else 0.0

    def latency_equilibrium(self) -> float:
        return equilibrium_level(self.latency.mean_latency_series())

    def latency_start(self) -> float:
        series = self.latency.mean_latency_series()
        if len(series) < 2:
            raise ConfigurationError("run too short for latency statistics")
        return max(series.values[0], series.values[1])

    def latency_reduction(self) -> float:
        start = self.latency_start()
        return 1.0 - self.latency_equilibrium() / start if start else 0.0

    def proximity_reduction(self) -> float:
        """Relative reduction in mean response hops, start to equilibrium.

        The bandwidth ratio per *serviced* request — immune to the early
        throughput suppression a saturated host causes in the raw
        byte-hop series (relevant to hot-sites, where the paper's own
        initial latencies are tens of seconds).
        """
        series = self.latency.mean_response_hops_series()
        if len(series) < 2:
            raise ConfigurationError("run too short for hop statistics")
        start = max(series.values[0], series.values[1])
        return 1.0 - equilibrium_level(series) / start if start else 0.0

    # -- Figure 7 -------------------------------------------------------

    def overhead_fraction(self) -> float:
        return self.bandwidth.overhead_fraction()

    def overhead_fraction_fullscale(self) -> float:
        """Overhead share corrected to full-scale payload volume.

        Relocation traffic (objects moved per placement round) does not
        scale with the load axis, while payload traffic does; a run at
        load scale ``f`` therefore inflates the overhead *fraction* by
        roughly ``1/f``.  This reports the fraction the same placement
        activity would represent against full-scale payload traffic —
        the quantity comparable to the paper's Figure 7.
        """
        scale = self.config.load_scale
        overhead = self.bandwidth.overhead_byte_hops()
        payload = self.bandwidth.total_byte_hops() - overhead
        if payload <= 0:
            return 0.0
        return overhead / (overhead + payload / scale)

    # -- Figure 8 -------------------------------------------------------

    def max_load(self) -> float:
        return self.loads.max_load()

    def max_load_settled(self) -> float:
        """Max load after the first quarter of the run (post-adjustment)."""
        return self.loads.max_load_after(self.config.duration * 0.25)

    # -- Table 2 --------------------------------------------------------

    def adjustment_time(self) -> float:
        return adjustment_time(self.bandwidth.payload_series())

    def replicas_per_object(self) -> float:
        return self.replicas.equilibrium_replicas_per_object()


#: Metric names :func:`scenario_metrics` always emits (series-derived
#: metrics are additionally present when the run spans >= 2 buckets).
SCALAR_METRICS = (
    "requests_completed",
    "requests_dropped",
    "relocations",
    "replica_drops",
    "max_load",
    "max_load_settled",
    "replicas_per_object",
    "overhead_fraction",
    "overhead_fraction_fullscale",
)

#: Metrics derived from the bucketed time series; absent from
#: :func:`scenario_metrics` output when the run is too short for them.
SERIES_METRICS = (
    "bandwidth_reduction",
    "proximity_reduction",
    "latency_equilibrium",
    "latency_reduction",
    "adjustment_time",
)


def scenario_metrics(result: ScenarioResult) -> dict[str, float]:
    """Flatten a run's headline measurements into a JSON-safe scalar dict.

    This is the per-run payload of the sweep engine: everything a
    worker process ships back to the parent (the :class:`ScenarioResult`
    itself holds the whole simulator and never crosses the process
    boundary).  Series-derived metrics that need at least two buckets
    are silently omitted on runs too short to compute them.
    """
    events = result.system.placement_events
    metrics: dict[str, float] = {
        "requests_completed": float(result.latency.completed),
        "requests_dropped": float(result.latency.dropped),
        "relocations": float(len(events)),
        "replica_drops": float(
            sum(1 for e in events if e.action.value == "drop")
        ),
        "max_load": result.max_load(),
        "max_load_settled": result.max_load_settled(),
        "replicas_per_object": result.replicas_per_object(),
        "overhead_fraction": result.overhead_fraction(),
        "overhead_fraction_fullscale": result.overhead_fraction_fullscale(),
    }
    series_derived: dict[str, Callable[[], float]] = {
        "bandwidth_reduction": result.bandwidth_reduction,
        "proximity_reduction": result.proximity_reduction,
        "latency_equilibrium": result.latency_equilibrium,
        "latency_reduction": result.latency_reduction,
        "adjustment_time": result.adjustment_time,
    }
    for name, compute in series_derived.items():
        try:
            metrics[name] = compute()
        except ConfigurationError:
            pass
    if result.system.fault_plane is not None:
        # Fault-plane scalars only exist on faulted runs, so fault-free
        # metric dicts (and their spec hashes / baselines) are unchanged.
        metrics.update(fault_metrics(result.system, result.config.duration))
        if result.injector is not None:
            metrics["host_failures"] = float(
                sum(1 for e in result.injector.events if e.failed)
            )
    if result.system.consistency_plane is not None:
        # Staleness scalars only exist on consistency-enabled runs, so
        # write-free metric dicts (and their baselines) are unchanged.
        metrics.update(staleness_metrics(result.system, result.config.duration))
    return metrics


def run_scenario_metrics(config: ScenarioConfig) -> dict[str, float]:
    """Run one scenario and return only its scalar metrics.

    Module-level (hence picklable) on purpose: this is the function the
    sweep executor runs inside worker processes.
    """
    return scenario_metrics(run_scenario(config))


def run_scenario(
    config: ScenarioConfig,
    *,
    topology: Topology | None = None,
    tracer: DecisionTracer | None = None,
    served_observers: tuple = (),
    measurement_observers: tuple = (),
    sim_tracers: tuple = (),
) -> ScenarioResult:
    """Run a scenario start-to-finish and return its measurements.

    ``served_observers`` / ``measurement_observers`` are extra callbacks
    attached to the system before it starts (see
    ``HostingSystem.served_observers``); the optimality-gap harness uses
    them to record the demand trace.  ``sim_tracers`` are
    :class:`~repro.sim.engine.SimTracer` objects added to the simulator
    after the engine mode is decided (so they never stand the fast lane
    down) and removed at the horizon; the profiler brackets the drain
    with their run hooks.  Defaults leave the run untouched.
    """
    strategy = resolve_strategy(config.strategy)
    sim, system, workload = build_system(config, topology=topology, tracer=tracer)
    system.served_observers.extend(served_observers)
    system.measurement_observers.extend(measurement_observers)
    bandwidth = BandwidthCollector(system.network, bucket=config.bucket)
    latency = LatencyCollector(system, bucket=config.bucket)
    loads = LoadCollector(system)
    replicas = ReplicaCollector(system, sample_interval=config.bucket)
    faults = config.faults
    injector: FailureInjector | None = None
    if faults.enabled and (faults.outages or faults.mtbf is not None):
        injector = FailureInjector(sim, system)
        for node, at, outage_duration in faults.outages:
            injector.schedule_outage(node, at, outage_duration)
        if faults.mtbf is not None and faults.mttr is not None:
            injector.schedule_random_outages(
                RngFactory(config.seed).stream("outages"),
                mtbf=faults.mtbf,
                mttr=faults.mttr,
                horizon=config.duration,
            )
    system.start()
    placer = None
    if strategy.attach is not None:
        placer = strategy.attach(system, config)
        placer.start()
    # After every observer/placer attachment, so the eligibility check
    # sees the final configuration.  A no-op when blocked.
    lane_blockers = system.enable_fast_lane(bandwidth=bandwidth)
    generators = attach_generators(
        sim,
        system,
        workload,
        config.node_request_rate,
        RngFactory(config.seed),
        poisson=config.poisson,
    )
    writer: ProviderWriteGenerator | None = None
    if system.consistency_plane is not None and config.consistency.write_rate > 0:
        writer = ProviderWriteGenerator(
            sim,
            system.consistency_plane,
            workload,
            config.consistency.write_rate,
            RngFactory(config.seed).stream("writes"),
            poisson=config.poisson,
        )
    for sim_tracer in sim_tracers:
        sim.add_tracer(sim_tracer)
    # The drain makes no reference cycles (tests/scenarios/test_runner.py
    # pins it), so the cyclic collector's passes over the growing heap
    # find nothing to free: pause it for the drain, then hand the caller
    # back the state it had.
    collecting = gc.isenabled()
    gc.disable()
    try:
        sim.run(until=config.duration)
    finally:
        if collecting:
            gc.enable()
        for sim_tracer in sim_tracers:
            sim.remove_tracer(sim_tracer)
    for generator in generators:
        generator.stop()
    if writer is not None:
        writer.stop()
    if placer is not None:
        placer.stop()
    system.stop()
    if system.fast_lane is not None:
        # Fold the lane's aggregated byte-hop accounting into the
        # bandwidth collector and transport totals before anyone reads.
        system.fast_lane.flush()
    replicas.stop()
    loads.finalize()
    if config.check_invariants:
        system.check_invariants()
    return ScenarioResult(
        config=config,
        system=system,
        bandwidth=bandwidth,
        latency=latency,
        loads=loads,
        replicas=replicas,
        trace=system.tracer,
        injector=injector,
        placer=placer,
        lane_blockers=tuple(lane_blockers),
    )
