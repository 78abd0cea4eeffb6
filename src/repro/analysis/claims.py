"""The paper-claims scorecard: every statement the reproduction defends.

:data:`CLAIMS` is one table: per row a paper statement, the paper's own
number, a threshold and how its value is read from one seed's runs (a row
over "every workload" reads the worst one).  :func:`run_claims` runs the
sweeps of :func:`plan` for each of :data:`SEEDS`; a row holds only when it
holds on every seed.  The run shapes are constants, not options: the
paper grid (Figs. 6–9, Table 2, Thm 5) is the four workloads at low and
high load, scale 0.3, 3000 s — long enough for hot-sites to settle; the
zipf grid (ablations, baselines, seeds) and the ADR comparison run at
0.15 for 1500 s, for an ordering between settings, not levels.
"""

from __future__ import annotations

import math
import time
from contextlib import suppress
from dataclasses import dataclass
from operator import ge, gt, le, lt, sub, truediv
from typing import Any, Callable, Iterable

from repro.analysis.figures import figure6_series, figure7_series
from repro.analysis.stats import summarize
from repro.analysis.tables import PAPER_TABLE1, table1_rows
from repro.baselines.adr import run_adr
from repro.baselines.closest import ClosestReplicaRedirector
from repro.baselines.round_robin import RoundRobinRedirector
from repro.core.redirector import RedirectorService
from repro.errors import ConfigurationError
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.presets import WORKLOAD_NAMES, paper_parameters, paper_scenario
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.sweep import RunSpec, SweepSpec, point_label, run_sweep
from repro.topology.generators import line_topology, two_cluster_topology
from repro.types import PlacementAction, PlacementEvent

SCHEMA = "claims/v1"
#: Every per-seed row is judged on each of these seeds.
SEEDS = (1, 2, 3)
#: (load scale, simulated seconds) of the paper grid and of the zipf grids.
PAPER_SHAPE = (0.3, 3000.0)
ZIPF_SHAPE = (0.15, 1500.0)
#: Provider writes mixed into ADR's demand (its tests are read/write driven).
ADR_WRITE_FRACTION = 0.01
#: The zipf grid's baseline strategies beside the paper protocol.
BASELINES = ("static", "round-robin", "closest", "full-replication")

#: One seed's measurements: run name -> metric -> value.
Measurements = dict[str, dict[str, float]]

_OPS = {">": gt, ">=": ge, "<": lt, "<=": le}


@dataclass(frozen=True)
class Claim:
    """One row of the scorecard."""

    id: str
    source: str
    statement: str
    #: The paper's own number or wording for the statement.
    paper: str
    #: ``(op, bound)`` pairs, all of which the value must satisfy.
    bounds: tuple[tuple[str, float], ...]
    #: Reads the value from one seed's :data:`Measurements` — or, for a
    #: pooled row, from the list of every seed's.
    value: Callable[[Any], float]
    pooled: bool = False

    @property
    def threshold(self) -> str:
        return " and ".join(f"{op} {bound:g}" for op, bound in self.bounds)

    def holds(self, value: float) -> bool:
        return all(_OPS[op](value, bound) for op, bound in self.bounds)


# ----------------------------------------------------------------------
# Measurements a row reads
# ----------------------------------------------------------------------


def quick_drops(events: Iterable[PlacementEvent], interval: float) -> tuple[int, int]:
    """``(replications, of which final-dropped within interval)``: the next
    DROP of the same ``(obj, host)`` follows the REPLICATE by at most
    ``interval`` (Thm 5: under ``4u < m`` none is undone at the next round)."""
    pending: dict[tuple[int, int], list[float]] = {}
    replications = dropped = 0
    for event in events:
        if event.action is PlacementAction.REPLICATE:
            replications += 1
            pending.setdefault((event.obj, event.target), []).append(event.time)
        elif event.action is PlacementAction.DROP:
            created = pending.pop((event.obj, event.source), ())
            dropped += sum(1 for at in created if event.time - at <= interval)
    return replications, dropped


def measure(run: RunSpec) -> dict[str, float]:
    """The sweep run function: ``scenario_metrics`` plus the scalars rows read."""
    config = run.config
    result = run_scenario(config)
    metrics = scenario_metrics(result)
    hops = figure6_series(result)["mean_response_hops"]
    overhead = figure7_series(result)["overhead_fraction"]
    extras = {
        "latency_start": result.latency_start,
        "bandwidth_equilibrium": result.bandwidth_equilibrium,
        "hops_start": lambda: hops.values[0],
        "hops_equilibrium": hops.mean_tail,
        # Fig. 8a's "settled": the last 15 % of the run.
        "max_load_final": lambda: result.loads.max_load_after(config.duration * 0.85),
        "overhead_tail": overhead.mean_tail,
        "overhead_peak": overhead.max,
    }
    for name, compute in extras.items():
        with suppress(ConfigurationError, IndexError):  # too short a run
            metrics[name] = compute()
    samples = result.loads.focal_samples
    replications, dropped = quick_drops(
        result.system.placement_events, config.protocol.placement_interval
    )
    metrics.update(
        high_watermark=config.protocol.high_watermark,
        capacity=config.capacity,
        bracket_samples=float(len(samples)),
        bracket_inside=float(len(samples) - result.loads.bounds_violations()),
        bracket_spread=float(
            sum(s.upper_estimate > s.lower_estimate + 1e-9 for s in samples)
        ),
        replications=float(replications),
        replications_dropped_within_interval=float(dropped),
    )
    return metrics


def measure_adr(run: RunSpec) -> dict[str, float]:
    """:func:`measure` plus ADR driven by the same demand, 1 % writes."""
    metrics = measure(run)
    adr, tail_cost = run_adr(run.config, write_fraction=ADR_WRITE_FRACTION)
    metrics.update(
        adr_read_hops=tail_cost / run.config.object_size,
        adr_replicas_per_object=adr.replicas_per_object(),
        adr_relocations=float(adr.expansions + adr.contractions + adr.switches),
        adr_expansions=float(adr.expansions),
    )
    return metrics


def section3_shares() -> dict[str, float]:
    """The Sec. 3 worked examples: request shares per policy and demand on
    the two-cluster world (replicas on hosts 1 and 7, demand from gateways 0
    and 8 in turn or from 0 alone), and the closest of ``n`` equally loaded
    replicas on a line (``closest-of-n``)."""
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    shares: dict[str, float] = {}
    for policy, cls in (
        ("paper", RedirectorService),
        ("round-robin", RoundRobinRedirector),
        ("closest", ClosestReplicaRedirector),
    ):
        for demand, gateways in (("balanced", (0, 8)), ("hotspot", (0,))):
            service = cls(0, RoutingDatabase(topology))
            service.register_initial(0, 1)
            service.replica_created(0, 7, 1)
            chosen = [
                service.choose_replica(gateways[i % len(gateways)], 0) for i in range(3000)
            ]
            for region, host in (("america", 1), ("europe", 7)):
                shares[f"{policy}/{demand}/{region}"] = chosen.count(host) / 3000
    routes = RoutingDatabase(line_topology(10))
    for n in (2, 4, 6):
        service = RedirectorService(0, routes)
        service.register_initial(0, 0)
        for host in range(1, n):
            service.replica_created(0, host, 1)
        closest = sum(service.choose_replica(0, 0) == 0 for _ in range(5000))
        shares[f"closest-of-{n}"] = closest / 5000
    return shares


def table1_measurements() -> dict[str, float]:
    """How far the presets are from the paper's Table 1."""
    ours = dict(table1_rows(paper_parameters()))
    high = paper_parameters(high_load=True).protocol
    return {
        "mismatches": float(sum(ours[name] != text for name, text in PAPER_TABLE1)),
        "high_load_distance": abs(high.high_watermark - 50.0) + abs(high.low_watermark - 40.0),
    }


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

W = WORKLOAD_NAMES
BAND = ((">", 0.3), ("<", 0.75))
CONSTANTS = ("constant=1.5", "zipf", "constant=4")  # distribution constant 1.5, 2, 4
HIGH_VS_LOW = ("high", "low")


def _at(run: str, metric: str):
    return lambda m: m[run][metric]


def _ratio(run: str, metric: str, over_metric: str | None = None, *, over: str | None = None):
    """``run``'s metric ÷ another metric of it, or the same metric of ``over``."""
    return lambda m: m[run][metric] / m[over or run][over_metric or metric]


def _minus(run: str, other: str, metric: str):
    return lambda m: m[run][metric] - m[other][metric]


def _worst(agg, grid: str, metric: str, per: float = 1.0):
    """``agg`` of one metric over the ``grid`` ("low" / "high") runs, ÷ ``per``."""
    return lambda m: agg(m[f"{grid}/{w}"][metric] for w in W) / per


def _pair(agg, op, metric, over_metric=None, grids=("low", "low"), workloads=W):
    """``agg`` over workloads of ``op`` on two readings of each one's runs."""
    first, second = grids
    return lambda m: agg(
        op(m[f"{first}/{w}"][metric], m[f"{second}/{w}"][over_metric or metric])
        for w in workloads
    )


def _regional_vs(agg, metric: str):
    """regional's metric minus ``agg`` of the other three workloads'."""
    return lambda m: m["low/regional"][metric] - agg(
        m[f"low/{w}"][metric] for w in W if w != "regional"
    )


def _seeds(metric: str, read: Callable):
    return lambda ms: read(summarize([m["zipf"][metric] for m in ms]))


# fmt: off
CLAIMS: tuple[Claim, ...] = (
    Claim("fig6.proximity", "Fig. 6", "response hops per request fall, every workload (least)",
          "BW −60.1 … −90.1 %", ((">", 0.25),), _worst(min, "low", "proximity_reduction")),
    Claim("fig6.regional-first", "Fig. 6", "regional's bandwidth reduction minus the next largest",
          "−90.1 vs −60.1 … −68.3 %", ((">=", 0.0),),
          _regional_vs(max, "bandwidth_reduction")),
    Claim("fig6.regional", "Fig. 6", "regional bandwidth reduction", "−90.1 %", ((">", 0.6),),
          _at("low/regional", "bandwidth_reduction")),
    Claim("fig6.zipf", "Fig. 6", "zipf bandwidth reduction", "−60.1 %", BAND,
          _at("low/zipf", "bandwidth_reduction")),
    Claim("fig6.hot-pages", "Fig. 6", "hot-pages bandwidth reduction", "−62.9 %", BAND,
          _at("low/hot-pages", "bandwidth_reduction")),
    Claim("fig6.latency-falls", "Fig. 6", "latency, equilibrium ÷ start (largest but hot-sites)",
          "−20 … −28 %", (("<", 1.0),),
          _pair(max, truediv, "latency_equilibrium", "latency_start",
                workloads=("zipf", "hot-pages", "regional"))),
    Claim("fig6.hot-sites-start", "Fig. 6", "hot-sites latency at the start (s)",
          "tens of seconds", ((">", 5.0),), _at("low/hot-sites", "latency_start")),
    Claim("fig6.hot-sites-settles", "Fig. 6", "hot-sites equilibrium latency (s)",
          "collapses", (("<", 1.0),), _at("low/hot-sites", "latency_equilibrium")),
    Claim("fig6.same-equilibrium", "Fig. 6", "|hot-sites ÷ hot-pages equilibrium bandwidth − 1|",
          "\"the same\"", (("<", 0.25),),
          lambda m: abs(m["low/hot-sites"]["bandwidth_equilibrium"]
                        / m["low/hot-pages"]["bandwidth_equilibrium"] - 1)),
    Claim("fig7.overhead", "Fig. 7", "relocation overhead share, full-scale equivalent (largest)",
          "< 2.5 %", (("<", 0.06),), _worst(max, "low", "overhead_fraction_fullscale")),
    Claim("fig7.decays", "Fig. 7", "overhead share, last-quarter mean ÷ peak (largest)",
          "decays", (("<", 1.0),), _pair(max, truediv, "overhead_tail", "overhead_peak")),
    Claim("fig8a.settled", "Fig. 8a", "max host load, last 15 % of the run ÷ hw (largest)",
          "below hw", (("<=", 1.4),), _pair(max, truediv, "max_load_final", "high_watermark")),
    Claim("fig8a.hot-sites-saturated", "Fig. 8a", "hot-sites peak max load ÷ capacity",
          "initially high", ((">=", 0.95),), _ratio("low/hot-sites", "max_load", "capacity")),
    Claim("fig8a.hot-sites-relieved", "Fig. 8a", "hot-sites settled max load ÷ its peak",
          "hot spots removed", (("<", 0.55),),
          _ratio("low/hot-sites", "max_load_final", "max_load")),
    Claim("fig8b.samples", "Fig. 8b", "focal-host load samples (zipf)", "—", ((">", 50),),
          _at("low/zipf", "bracket_samples")),
    Claim("fig8b.bracket", "Fig. 8b", "focal-host samples inside [lower, upper] estimate",
          "between the estimates", ((">", 0.9),),
          _ratio("low/zipf", "bracket_inside", "bracket_samples")),
    Claim("fig8b.bounds-used", "Fig. 8b", "focal-host samples with upper > lower estimate",
          "—", ((">", 0),), _at("low/zipf", "bracket_spread")),
    Claim("fig9.bandwidth", "Fig. 9", "equilibrium bandwidth, high ÷ low load (least)",
          "+2 … +17 %", ((">", 0.98),),
          _pair(min, truediv, "bandwidth_equilibrium", grids=HIGH_VS_LOW)),
    Claim("fig9.proximity-shrinks", "Fig. 9", "proximity gain, high minus low load (largest)",
          "gains diminish", (("<", 0.0),),
          _pair(max, sub, "proximity_reduction", grids=HIGH_VS_LOW)),
    Claim("fig9.proximity-survives", "Fig. 9", "proximity gain at high load (least)",
          "but do not vanish", ((">", 0.0),), _worst(min, "high", "proximity_reduction")),
    Claim("fig9.replicas", "Fig. 9", "replicas per object, high minus low load (largest)",
          "less headroom", (("<=", 0.05),),
          _pair(max, sub, "replicas_per_object", grids=HIGH_VS_LOW)),
    Claim("table2.adjustment-min", "Table 2", "adjustment time, minutes (shortest)",
          "20–23 min", ((">=", 2.0),), _worst(min, "low", "adjustment_time", per=60)),
    Claim("table2.adjustment-max", "Table 2", "adjustment time, minutes (longest)",
          "20–23 min", (("<=", 45.0),), _worst(max, "low", "adjustment_time", per=60)),
    Claim("table2.replicas-min", "Table 2", "replicas per object (fewest)", "1.49–2.62",
          ((">=", 1.0),), _worst(min, "low", "replicas_per_object")),
    Claim("table2.replicas-max", "Table 2", "replicas per object (most)", "1.49–2.62",
          (("<=", 4.0),), _worst(max, "low", "replicas_per_object")),
    Claim("table2.regional-fewest", "Table 2", "regional's replicas minus the fewest other's",
          "1.49 vs 1.86–2.62", (("<=", 0.0),), _regional_vs(min, "replicas_per_object")),
    Claim("table2.hot-sites-vs-regional", "Table 2", "hot-sites' replicas minus regional's",
          "2.62 vs 1.49", ((">=", 0.0),),
          _minus("low/hot-sites", "low/regional", "replicas_per_object")),
    Claim("thm5.no-oscillation", "Thm 5", "replications final-dropped within one interval (zipf)",
          "none while 4u < m", (("<", 0.01),),
          _ratio("low/zipf", "replications_dropped_within_interval", "replications")),
    Claim("sec3.balanced", "Sec. 3", "balanced demand: share served locally (smaller region)",
          "all local", ((">", 0.47),),
          lambda m: min(m["sec3"][f"paper/balanced/{r}"] for r in ("america", "europe"))),
    Claim("sec3.hotspot", "Sec. 3", "American hotspot: |Europe's share − 1/3|", "2/3 – 1/3",
          (("<", 0.03),), lambda m: abs(m["sec3"]["paper/hotspot/europe"] - 1 / 3)),
    Claim("sec3.round-robin", "Sec. 3", "round-robin, hotspot: |Europe's share − 1/2|",
          "half cross the ocean", (("<", 0.02),),
          lambda m: abs(m["sec3"]["round-robin/hotspot/europe"] - 0.5)),
    Claim("sec3.closest", "Sec. 3", "closest-only, hotspot: Europe's share", "never sheds: 0",
          (("<=", 0.0),), _at("sec3", "closest/hotspot/europe")),
    Claim("sec3.closest-of-n", "Sec. 3", "n equal replicas: |closest's share − 2/(n+1)| (max)",
          "2N/(n+1) of N", (("<", 0.03),),
          lambda m: max(abs(m["sec3"][f"closest-of-{n}"] - 2 / (n + 1)) for n in (2, 4, 6))),
    Claim("table1.parameters", "Table 1", "rows the preset does not reproduce verbatim",
          "Table 1", (("<=", 0),), _at("table1", "mismatches")),
    Claim("table1.high-load", "Table 1", "Fig. 9 watermarks: distance from 50 / 40 req/s",
          "50 / 40", (("<=", 0.0),), _at("table1", "high_load_distance")),
    Claim("ablation.constant", "Sec. 6.1", "proximity reduction at constant 1.5, 2, 4 (least)",
          "C = 2", ((">", 0.2),), lambda m: min(m[r]["proximity_reduction"] for r in CONSTANTS)),
    Claim("ablation.ratio", "Thm 5", "replica drops at m/u = 4.5 minus at m/u = 12",
          "m = 6u", ((">=", 0),), _minus("ratio=4.5", "ratio=12", "replica_drops")),
    Claim("ablation.interval", "Sec. 6.1", "adjustment time, 50 s ÷ 200 s placement interval",
          "100 s", (("<=", 1.5),), _ratio("interval=50", "adjustment_time", over="interval=200")),
    Claim("baseline.bandwidth", "Fig. 6", "equilibrium bandwidth, paper protocol ÷ static",
          "−60.1 %", (("<", 0.75),),
          _ratio("zipf", "bandwidth_equilibrium", over="strategy=static")),
    Claim("baseline.hops", "Fig. 6", "response hops, paper protocol ÷ static", "fewer",
          (("<", 1.0),), _ratio("zipf", "hops_equilibrium", over="strategy=static")),
    Claim("baseline.round-robin", "Sec. 3", "response hops, round-robin ÷ paper distribution",
          "wastes proximity", ((">", 1.0),),
          _ratio("strategy=round-robin", "hops_equilibrium", over="zipf")),
    Claim("baseline.closest-latency", "Sec. 3", "latency, closest-only ÷ paper distribution",
          "starves load sharing", ((">", 1.0),),
          _ratio("strategy=closest", "latency_equilibrium", over="zipf")),
    Claim("baseline.closest-hops", "Sec. 3", "response hops, closest-only ÷ paper distribution",
          "starves load sharing", ((">", 1.0),),
          _ratio("strategy=closest", "hops_equilibrium", over="zipf")),
    Claim("adr.protocol-improves", "Sec. 1.1", "read cost, paper protocol ÷ static (regional)",
          "—", (("<", 1.0),), _ratio("adr", "hops_equilibrium", "hops_start")),
    Claim("adr.adr-improves", "Sec. 1.1", "read cost, ADR over the last third ÷ static", "—",
          (("<", 1.0),), _ratio("adr", "adr_read_hops", "hops_start")),
    Claim("adr.over-replicates", "Sec. 1.1", "replicas per object, ADR ÷ paper protocol",
          "\"not a suitable cost metric\"", ((">", 2.0),),
          _ratio("adr", "adr_replicas_per_object", "replicas_per_object")),
    Claim("adr.churn", "Sec. 1.1", "replica-set changes, ADR ÷ paper protocol relocations",
          "neighbour-only", ((">", 1.0),), _ratio("adr", "adr_relocations", "relocations")),
    Claim("adr.expands", "Sec. 1.1", "ADR expansions", "—", ((">", 0),),
          _at("adr", "adr_expansions")),
    Claim("adr.protocol-budget", "Table 2", "paper protocol's replicas per object (regional)",
          "1.49", (("<", 2.0),), _at("adr", "replicas_per_object")),
    Claim("seeds.bandwidth", "Fig. 6", "zipf bandwidth reduction, 95 % CI low end over seeds",
          "−60.1 %", ((">", 0.2),), _seeds("bandwidth_reduction", lambda s: s.low), True),
    Claim("seeds.bandwidth-tight", "Fig. 6", "zipf bandwidth reduction, CI half-width ÷ mean",
          "—", (("<", 0.5),), _seeds("bandwidth_reduction", lambda s: s.ci95 / s.mean), True),
    Claim("seeds.replicas-low", "Table 2", "zipf replicas per object, CI low end", "1.86",
          ((">", 1.0),), _seeds("replicas_per_object", lambda s: s.low), True),
    Claim("seeds.replicas-high", "Table 2", "zipf replicas per object, CI high end", "1.86",
          (("<", 3.0),), _seeds("replicas_per_object", lambda s: s.high), True),
)
# fmt: on


# ----------------------------------------------------------------------
# Running and judging
# ----------------------------------------------------------------------


def plan() -> list[tuple[SweepSpec, dict[str, str], Callable]]:
    """The sweeps behind the scorecard: ``(spec, point label -> run name,
    run function)`` each."""
    high = paper_parameters(high_load=True).scaled(PAPER_SHAPE[0]).protocol
    band = {"protocol.high_watermark": high.high_watermark,
            "protocol.low_watermark": high.low_watermark}
    paper = {f"low/{w}": {"workload": w} for w in W}
    paper |= {f"high/{w}": {"workload": w, **band} for w in W}
    u = 0.03 * ZIPF_SHAPE[0]
    zipf: dict[str, dict] = {"zipf": {}}
    zipf |= {f"constant={c:g}": {"protocol.distribution_constant": c} for c in (1.5, 4.0)}
    zipf |= {
        f"ratio={r:g}": {"protocol.deletion_threshold": u, "protocol.replication_threshold": r * u}
        for r in (4.5, 6.0, 12.0)
    }
    zipf |= {f"interval={i:g}": {"protocol.placement_interval": i} for i in (50.0, 200.0)}
    zipf |= {f"strategy={s}": {"strategy": s} for s in BASELINES}
    sweeps = []
    for name, (scale, duration), points, run_fn in (
        ("paper", PAPER_SHAPE, paper, measure),
        ("zipf", ZIPF_SHAPE, zipf, measure),
        ("adr", ZIPF_SHAPE, {"adr": {"workload": "regional"}}, measure_adr),
    ):
        spec = SweepSpec(
            base=paper_scenario("zipf", scale=scale, duration=duration),
            seeds=SEEDS,
            points=tuple(points.values()),
            name=f"claims-{name}",
        )
        labels = {point_label(overrides): run for run, overrides in points.items()}
        sweeps.append((spec, labels, run_fn))
    return sweeps


def _value(claim: Claim, measured: Any) -> float | None:
    try:
        value = float(claim.value(measured))
    except (KeyError, ZeroDivisionError, ValueError, ConfigurationError):
        return None  # a run or metric the row reads is missing
    return None if math.isnan(value) else value


def scorecard(measurements: dict[int, Measurements]) -> list[dict]:
    """Judge every claim on every seed's measurements."""
    rows = []
    for claim in CLAIMS:
        if claim.pooled:
            values = {"pooled": _value(claim, list(measurements.values()))}
        else:
            values = {str(seed): _value(claim, m) for seed, m in measurements.items()}
        verdicts = {k: v is not None and claim.holds(v) for k, v in values.items()}
        text = {k: getattr(claim, k) for k in ("id", "source", "statement", "paper", "threshold")}
        holds = all(verdicts.values())
        rows.append(text | {"values": values, "verdicts": verdicts, "holds": holds})
    return rows


def run_claims(*, workers: int, progress: Callable[[str], None]) -> dict:
    """Run every sweep for every seed and return the scorecard artefact."""
    started = time.monotonic()
    static = {"sec3": section3_shares(), "table1": table1_measurements()}
    measurements: dict[int, Measurements] = {seed: dict(static) for seed in SEEDS}
    failures: list[str] = []
    spec_hashes: dict[str, str] = {}
    for spec, labels, run_fn in plan():
        progress(f"{spec.name}: {len(spec.runs())} runs on {workers} worker(s)")
        result = run_sweep(spec, workers=workers, run_fn=run_fn)
        spec_hashes[spec.name] = result.spec_hash
        for record in result.records:
            run = labels[record.point]
            if record.ok:
                measurements[record.seed][run] = dict(record.metrics)
            else:
                failures.append(f"{run}/seed={record.seed}: {record.status}: {record.error}")
    return {
        "schema": SCHEMA,
        "seeds": list(SEEDS),
        "shapes": {"paper": list(PAPER_SHAPE), "zipf": list(ZIPF_SHAPE)},
        "spec_hashes": spec_hashes,
        "claims": scorecard(measurements),
        "failures": failures,
        "measurements": {str(seed): m for seed, m in measurements.items()},
        "elapsed_seconds": time.monotonic() - started,
    }


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def markdown(card: dict) -> str:
    """The scorecard as one markdown table plus a one-line verdict."""
    lines = [
        "| claim | source | statement | paper | threshold | measured: mean (min – max) | holds |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in card["claims"]:
        values = [v for v in row["values"].values() if v is not None]
        measured = _fmt(sum(values) / len(values) if values else None)
        if len(values) > 1:
            measured += f" ({_fmt(min(values))} – {_fmt(max(values))})"
        verdicts = row["verdicts"]
        held = sum(verdicts.values())
        pooled = "pooled: yes" if held else "pooled: no"
        holds = pooled if "pooled" in verdicts else f"{held}/{len(verdicts)}"
        holds = holds if held == len(verdicts) else f"**{holds}**"
        cells = (row["source"], row["statement"], row["paper"], row["threshold"])
        escaped = " | ".join(cell.replace("|", "\\|") for cell in cells)
        lines.append(f"| `{row['id']}` | {escaped} | {measured} | {holds} |")
    failing = [row["id"] for row in card["claims"] if not row["holds"]]
    seeds = ", ".join(map(str, card["seeds"]))
    lines += [
        "",
        f"{len(card['claims']) - len(failing)} of {len(card['claims'])} claims hold on "
        f"every seed ({seeds})" + (f"; failing: {', '.join(failing)}." if failing else "."),
    ]
    return "\n".join(lines)
