"""The paper's exact experiment configurations, plus scaled defaults.

``paper_parameters()`` reproduces Table 1 verbatim (low-load watermarks
90/80); ``paper_scenario(workload, high_load=...)`` selects the per-
workload runs behind Figures 6–9 and Table 2.

Scale: a full paper run is 53 gateways x 40 req/s x 2400 s ≈ 5 M
requests, minutes of wall-clock per run in pure Python.  Benchmarks
therefore default to a proportional scale factor (see
:meth:`~repro.scenarios.config.ScenarioConfig.scaled`) of
:data:`DEFAULT_BENCH_SCALE`; override with the ``REPRO_SCALE`` env var or
``REPRO_FULL_SCALE=1`` for paper scale.
"""

from __future__ import annotations

import os

from repro.consistency.config import ConsistencyConfig
from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.network.faults import FaultConfig
from repro.scenarios.config import ScenarioConfig
from repro.topology.generators import random_geometric_topology
from repro.topology.graph import Topology
from repro.workloads import SCENARIO_WORKLOADS

#: The four evaluation workloads of Section 6.1, in the paper's order.
WORKLOAD_NAMES = tuple(SCENARIO_WORKLOADS)[:4]

#: Default load-axis scale for benchmark runs (12 req/s per node).  Below
#: ~0.2 the integer access counts in the [u, m] band get noisy enough to
#: cause spurious replica drops that the full-scale system never sees.
DEFAULT_BENCH_SCALE = 0.3


def paper_parameters(*, high_load: bool = False) -> ScenarioConfig:
    """Table 1, verbatim.

    ``high_load=True`` selects the Figure 9 variant: watermarks 50/40
    instead of 90/80, which "on average places the low watermark load on
    every server" (mean per-node demand is 40 req/s).
    """
    watermarks = (40.0, 50.0) if high_load else (80.0, 90.0)
    protocol = ProtocolConfig(
        high_watermark=watermarks[1],
        low_watermark=watermarks[0],
        deletion_threshold=0.03,
        replication_threshold=0.18,
        migr_ratio=0.6,
        repl_ratio=1.0 / 6.0,
        distribution_constant=2.0,
        placement_interval=100.0,
        measurement_interval=20.0,
    )
    return ScenarioConfig(
        name="paper-high-load" if high_load else "paper-low-load",
        num_objects=10_000,
        object_size=12 * 1024,
        node_request_rate=40.0,
        capacity=200.0,
        hop_delay=0.010,
        bandwidth=350_000.0,
        protocol=protocol,
    )


def bench_scale() -> float:
    """The scale factor benchmark runs should use.

    ``REPRO_FULL_SCALE=1`` forces 1.0; ``REPRO_SCALE=<float>`` overrides;
    otherwise :data:`DEFAULT_BENCH_SCALE`.
    """
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return 1.0
    override = os.environ.get("REPRO_SCALE")
    if override is not None:
        try:
            value = float(override)
        except ValueError as exc:
            raise ConfigurationError(f"bad REPRO_SCALE {override!r}") from exc
        if value <= 0:
            raise ConfigurationError(f"REPRO_SCALE must be positive, got {value}")
        return value
    return DEFAULT_BENCH_SCALE


def paper_scenario(
    workload: str,
    *,
    high_load: bool = False,
    dynamic: bool = True,
    scale: float | None = None,
    duration: float | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """One of the paper's evaluation runs, optionally scaled.

    Parameters mirror the experiment grid: ``workload`` is one of
    :data:`WORKLOAD_NAMES`, ``high_load`` selects the Figure 9 variant,
    ``dynamic=False`` yields the static-placement comparison run.
    """
    config = paper_parameters(high_load=high_load)
    config = config.replace(
        name=f"{config.name}-{workload}", workload=workload, seed=seed
    )
    factor = bench_scale() if scale is None else scale
    config = config.scaled(factor)
    if duration is not None:
        config = config.replace(duration=duration)
    if not dynamic:
        config = config.replace(dynamic=False, name=f"{config.name}-static")
    return config


#: Default shape of the large-topology stress scenario (ROADMAP item 1:
#: "500+ hosts / 100k+ objects in minutes").
LARGE_TOPOLOGY_NODES = 500
LARGE_TOPOLOGY_OBJECTS = 100_000
LARGE_TOPOLOGY_SEED = 2024


def large_topology_scenario(
    *,
    num_nodes: int = LARGE_TOPOLOGY_NODES,
    num_objects: int = LARGE_TOPOLOGY_OBJECTS,
    duration: float = 120.0,
    seed: int = 1,
    scale: float = DEFAULT_BENCH_SCALE,
) -> tuple[ScenarioConfig, Topology]:
    """A 500-host / 100k-object engine stress scenario, plus its topology.

    The paper's protocol on a synthetic geometric backbone an order of
    magnitude beyond UUNET's 53 nodes, with Table 1 semantics via
    :func:`paper_parameters` + ``scaled``.  Pass both
    returned values to :func:`~repro.scenarios.runner.run_scenario`
    (config, then ``topology=``) — the runner would otherwise build the
    UUNET backbone.
    """
    topology = random_geometric_topology(num_nodes, seed=LARGE_TOPOLOGY_SEED)
    config = paper_parameters().replace(
        name=f"large-{num_nodes}n-{num_objects // 1000}ko",
        workload="zipf",
        num_objects=num_objects,
        duration=duration,
        seed=seed,
    )
    return config.scaled(scale), topology


def partitioned_write_scenario(
    *,
    seed: int = 1,
    scale: float = 0.05,
    duration: float = 240.0,
    num_objects: int = 48,
    write_rate: float = 2.0,
    partition_nodes: tuple[int, ...] = (0, 1, 2, 3),
    partition_at: float = 90.0,
    partition_duration: float = 60.0,
    anti_entropy_interval: float = 10.0,
    epidemic_interval: float | None = None,
) -> ScenarioConfig:
    """A write-heavy zipf run that partitions hot primaries mid-run.

    The fault-consistency demonstration scenario: a small zipf namespace
    (hot objects replicate early), a steady provider write stream, and a
    scheduled partition of the nodes holding the hottest primaries
    (round-robin initial placement puts object ``i`` on node ``i``; the
    zipf head is the low ids).  While the partition holds, writes at the
    isolated primaries cannot reach the majority-side replicas, so
    divergence windows open and stale reads accumulate; after the heal,
    heartbeat recovery plus periodic anti-entropy close every window.

    The partition excludes the board/redirector node (node 14 on the
    seed-1999 UUNET backbone), and no probabilistic faults are enabled:
    partition drops are deterministic, so the expected-behaviour
    assertions (:func:`assert_staleness_behaviour`) hold per-seed.
    """
    config = paper_parameters()
    protocol = config.protocol.replace(
        placement_interval=20.0,
        measurement_interval=5.0,
    )
    faults = FaultConfig(
        enabled=True,
        partitions=((tuple(partition_nodes), partition_at, partition_duration),),
        heartbeat_interval=2.0,
        repair_interval=5.0,
    )
    consistency = ConsistencyConfig(
        write_rate=write_rate,
        anti_entropy_interval=anti_entropy_interval,
        epidemic_interval=epidemic_interval,
    )
    config = config.replace(
        name="partitioned-writes",
        workload="zipf",
        seed=seed,
        duration=duration,
        num_objects=num_objects,
        protocol=protocol,
        faults=faults,
        consistency=consistency,
    )
    return config.scaled(scale)


def assert_staleness_behaviour(
    metrics: dict[str, float],
    config: ScenarioConfig,
    *,
    k: int = 3,
) -> None:
    """Expected-behaviour assertions for a partitioned write scenario.

    The full arc, checked against ``scenario_metrics`` output: writes
    diverged replicas during the partition (stale reads observed,
    divergence windows opened), the failure detector noticed the
    partition, every window closed by end of run with no window
    outliving the partition by more than ``k`` anti-entropy intervals,
    and stale reads stopped by the same convergence deadline.  Raises
    :class:`AssertionError` with the offending metric on violation.

    (Steady-state writes with immediate propagation open and close
    zero-length windows throughout the run, so the convergence bound is
    on window *length* and on when stale reads stop — not on the
    timestamp of the last window closure.  Under epidemic batching,
    reads inside a flush window are stale *by design* for the whole
    run, so the stale-reads-stop check only applies to immediate
    propagation and the window bound widens by one flush period.)
    """
    if not config.faults.partitions:
        raise ConfigurationError("scenario has no partition schedule")
    if config.consistency.anti_entropy_interval is None:
        raise ConfigurationError("scenario has no anti-entropy daemon")
    slack = k * config.consistency.anti_entropy_interval
    heal = max(at + duration for _, at, duration in config.faults.partitions)
    start = min(at for _, at, duration in config.faults.partitions)
    deadline = heal + slack
    assert metrics["stale_reads"] > 0, "expected stale reads during the partition"
    assert metrics["divergence_windows_opened"] > 0, (
        "expected divergence windows to open during the partition"
    )
    assert metrics.get("failure_detections", 0.0) >= 1, (
        "expected the heartbeat detector to notice the partition"
    )
    assert metrics["divergence_windows_open"] == 0, (
        f"{metrics['divergence_windows_open']:g} divergence windows still "
        "open at end of run"
    )
    epidemic = config.consistency.epidemic_interval
    max_window = deadline - start + (epidemic or 0.0)
    assert metrics["divergence_window_max_seconds"] <= max_window, (
        f"a divergence window lasted "
        f"{metrics['divergence_window_max_seconds']:g}s — longer than the "
        f"{max_window:g}s bound (partition span + {k} anti-entropy intervals)"
    )
    if epidemic is None:
        assert metrics["last_stale_read_at"] <= deadline, (
            f"stale read at {metrics['last_stale_read_at']:g}s, after the "
            f"convergence deadline {deadline:g}s (heal at {heal:g}s + "
            f"{k} anti-entropy intervals)"
        )
    assert metrics["stale_read_fraction"] < 0.5, (
        f"stale-read fraction {metrics['stale_read_fraction']:.3f} out of "
        "bounds — staleness should be a partition-window phenomenon"
    )
