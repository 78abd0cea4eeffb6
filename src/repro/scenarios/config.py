"""Scenario configuration: everything needed to reproduce one run.

Field defaults reproduce Table 1 of the paper (low-load watermarks).
``scaled`` produces a cheaper but dynamics-preserving variant: objects,
request rate, capacity and watermarks shrink together, so per-object
request rates (the quantities compared against the deletion/replication
thresholds) and relative server utilisation are unchanged, while total
event count drops by the scale factor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.consistency.config import ConsistencyConfig
from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.network.faults import FaultConfig
from repro.schema import AT_DEFAULT, NEVER, flag
from repro.workloads import SCENARIO_WORKLOADS

#: Request-distribution policies by name, in the order
#: ``scenarios.runner`` lists their redirector classes.
DISTRIBUTIONS = ("paper", "round-robin", "closest")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation run, fully specified."""

    name: str = "paper"
    workload: str = "zipf"
    seed: int = 1
    #: Simulated duration, seconds.  The paper's adjustment times are
    #: 20-23 minutes; 3000 s leaves a stable equilibrium tail.
    duration: float = 3000.0
    num_objects: int = 10_000
    object_size: int = 12 * 1024
    node_request_rate: float = 40.0
    capacity: float = 200.0
    hop_delay: float = 0.010
    bandwidth: float = 350_000.0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: Topology seed for the synthetic UUNET backbone.
    topology_seed: int = 1999
    #: Metrics bucket width in seconds.
    bucket: float = 60.0
    dynamic: bool = field(
        default=True,
        metadata=flag(
            "--static",
            help="freeze the initial placement: no dynamic placement "
            "(the static baseline)",
        ),
    )
    distribution: str = field(
        default="paper",
        metadata=flag(
            "--distribution", help="request-distribution policy", choices=DISTRIBUTIONS
        ),
    )
    #: Non-"paper" strategies ("static", "round-robin", "closest",
    #: "full-replication", "offline-greedy", "availability-aware") may
    #: override build-time fields (``dynamic``, ``distribution``), swap
    #: the initial placement, or attach a placer to the run.  "paper"
    #: describes every run made before the registry existed.
    strategy: str = field(
        default="paper",
        metadata=flag(
            "--strategy",
            "NAME",
            "placement strategy, a key of repro.baselines.STRATEGIES",
            hash=AT_DEFAULT,
        ),
    )
    #: Poisson (True) vs evenly spaced (False, paper) request arrivals.
    poisson: bool = False
    #: Maintain per-link byte counters (off by default for speed).
    track_links: bool = False
    #: Keep every latency sample (percentiles) — memory-heavy at scale.
    keep_latency_samples: bool = False
    #: Load-axis scale factor relative to the paper's Table 1 (set by
    #: :meth:`scaled`); used to report full-scale-equivalent overhead.
    load_scale: float = 1.0
    #: Attach a :class:`~repro.obs.tracer.DecisionTracer` to the run and
    #: surface it as :attr:`ScenarioResult.trace`.
    traced: bool = False
    trace_capacity: int = field(
        default=65_536,
        metadata=flag(
            "--capacity",
            "N",
            "per-kind ring capacity of the attached tracer",
            group="trace",
        ),
    )
    #: Network fault model (robustness extension).  Disabled by default,
    #: which keeps the run byte-identical to the reliable simulator.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Consistency plane: provider writes, category mix, epidemic
    #: batching, anti-entropy and read-repair (Sec. 5 under faults).
    #: Disabled by default, which builds no plane at all and keeps the
    #: run byte-identical to write-free scenarios.
    consistency: ConsistencyConfig = field(
        default_factory=ConsistencyConfig, metadata={"hash": AT_DEFAULT}
    )
    #: Opt-in: the checks (registry-subset and affinity consistency) are
    #: O(objects x replicas) and belong in tests and debugging runs, not
    #: in every benchmark sweep.
    check_invariants: bool = field(
        default=False,
        metadata=flag(
            "--check-invariants",
            help="run HostingSystem.check_invariants at the end of the run",
            hash=NEVER,
        ),
    )

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.num_objects < 1:
            raise ConfigurationError("need at least one object")
        if self.node_request_rate <= 0:
            raise ConfigurationError("request rate must be positive")
        if self.capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.workload not in SCENARIO_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"choose from {tuple(SCENARIO_WORKLOADS)}"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution policy {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )
        if self.strategy != "paper":
            # Late import: the baseline registry is a config consumer.
            from repro.baselines import resolve_strategy

            resolve_strategy(self.strategy)
        if self.bucket <= 0:
            raise ConfigurationError("bucket width must be positive")
        if self.trace_capacity < 1:
            raise ConfigurationError("trace capacity must be at least 1")

    def scaled(self, factor: float) -> "ScenarioConfig":
        """Scale the *load axis* of the run by ``factor``.

        Every quantity measured in requests/sec scales together: the
        per-node request rate, host capacity, both watermarks and both
        placement thresholds (u and m).  The object namespace, topology,
        durations and intervals are untouched.  Because the protocol only
        ever compares load-dimension quantities against each other
        (unit access rate vs u/m, loads vs watermarks, 4·l/aff vs
        headroom), the entire placement dynamics is exactly the full-scale
        dynamics with the load axis relabelled — only the integer-count
        granularity of access statistics gets coarser.  Event count (and
        hence wall-clock time) scales by ``factor``.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        protocol = self.protocol.replace(
            high_watermark=self.protocol.high_watermark * factor,
            low_watermark=self.protocol.low_watermark * factor,
            deletion_threshold=self.protocol.deletion_threshold * factor,
            replication_threshold=self.protocol.replication_threshold * factor,
        )
        return dataclasses.replace(
            self,
            name=f"{self.name}-x{factor:g}",
            node_request_rate=self.node_request_rate * factor,
            capacity=self.capacity * factor,
            protocol=protocol,
            load_scale=self.load_scale * factor,
        )

    def replace(self, **changes) -> "ScenarioConfig":
        """A copy with arbitrary field changes, revalidated."""
        return dataclasses.replace(self, **changes)
