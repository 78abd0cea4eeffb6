"""``run`` and ``trace``, and the one way a command line becomes a scenario."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import output_path, write_json
from repro.consistency.config import ConsistencyConfig
from repro.metrics.availability import fault_metrics
from repro.metrics.report import format_table, series_summary
from repro.metrics.staleness import staleness_metrics
from repro.network.faults import FaultConfig
from repro.obs.export import dump_jsonl, write_jsonl
from repro.obs.profile import safe_metrics
from repro.obs.records import RECORD_KINDS
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import run_scenario
from repro.schema import add_flags, apply_overrides, given
from repro.workloads import SCENARIO_WORKLOADS


def add_scenario_options(
    parser: argparse.ArgumentParser, default_duration: float
) -> None:
    """The scenario ``run``/``trace``/``sweep``/``profile`` describe.

    The arguments of the :func:`paper_scenario` preset are not config
    fields (``--scale``, ``--high-load``) or default differently per
    command (``--duration``), so they are written here, once; every
    other flag is declared by the field it sets.
    """
    parser.add_argument(
        "--workload",
        "--preset",
        choices=list(SCENARIO_WORKLOADS),
        default="zipf",
        help="request pattern (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.15,
        help="load-axis scale relative to Table 1 (default: %(default)s)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=default_duration,
        help="simulated seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="scenario seed (default: %(default)s)"
    )
    parser.add_argument(
        "--high-load",
        action="store_true",
        help="use the Figure 9 watermarks (50/40 instead of 90/80)",
    )
    add_flags(parser, ScenarioConfig())
    faults = parser.add_argument_group(
        "fault injection",
        "any of these enables the unreliable-network fault plane",
    )
    add_flags(faults, FaultConfig(), "faults.")
    consistency = parser.add_argument_group(
        "consistency plane",
        "any of these enables Sec. 5 provider writes and repair loops",
    )
    add_flags(consistency, ConsistencyConfig(), "consistency.")


def scenario_from_args(
    args: argparse.Namespace, base: ScenarioConfig | None = None
) -> ScenarioConfig:
    """The :class:`ScenarioConfig` a parsed command line describes.

    ``base`` replaces the paper preset the scenario options select.
    """
    overrides = given(args)
    if base is None:
        base = paper_scenario(
            args.workload,
            high_load=args.high_load,
            dynamic=overrides.pop("dynamic", True),
            scale=args.scale,
            duration=args.duration,
            seed=args.seed,
        )
    if any(key.startswith("faults.") for key in overrides):
        overrides["faults.enabled"] = True
    return apply_overrides(base, overrides)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def populate_run(parser: argparse.ArgumentParser) -> None:
    add_scenario_options(parser, default_duration=1800.0)
    parser.add_argument(
        "--json",
        dest="json_out",
        type=output_path,
        metavar="PATH",
        help="also write the run's scalar metrics as JSON here",
    )


def run_main(args: argparse.Namespace) -> int:
    config = scenario_from_args(args)
    print(f"running {config.name!r} ({config.distribution} distribution) ...")
    result = run_scenario(config)
    # Start/equilibrium statistics need two full buckets; a short run
    # reports them as n/a instead of failing after the simulation.
    metrics = safe_metrics(result)
    extra = {"engine_mode": result.engine_mode()}
    # The loadgen summary's names; absent, as there, when nothing completed.
    if result.latency.completed:
        extra["latency_p50_ms"] = result.latency.percentile(50) * 1e3
        extra["latency_p99_ms"] = result.latency.percentile(99) * 1e3

    def shown(name: str, spec: str, unit: str = "") -> str:
        value = metrics.get(name)
        return "n/a" if value is None else f"{value:{spec}}{unit}"

    print()
    print(series_summary("bandwidth (byte-hops/min)", result.bandwidth.payload_series()))
    print(series_summary("mean latency (s)", result.latency.mean_latency_series()))
    rows = [
        ["engine", extra["engine_mode"]],
        ["requests serviced / dropped",
         f"{result.latency.completed} / {result.latency.dropped}"],
        ["latency p50 / p99",
         f"{extra['latency_p50_ms']:.1f} / {extra['latency_p99_ms']:.1f} ms"
         if result.latency.completed else "n/a"],
        ["bandwidth reduction", shown("bandwidth_reduction", ".1%")],
        ["per-request bandwidth reduction", shown("proximity_reduction", ".1%")],
        ["latency equilibrium", shown("latency_equilibrium", ".3f", " s")],
        ["replicas per object", shown("replicas_per_object", ".2f")],
        ["overhead (full-scale equiv.)",
         shown("overhead_fraction_fullscale", ".2%")],
        ["settled max load",
         shown("max_load_settled", ".1f", " req/s")
         + f" (hw {config.protocol.high_watermark:g})"],
        ["relocations", f"{len(result.system.placement_events)}"],
    ]
    if result.system.fault_plane is not None:
        faulty = fault_metrics(result.system, config.duration)
        rows.extend(
            [
                ["requests lost", f"{faulty['requests_lost']:.0f}"],
                ["rpc retries / timeouts",
                 f"{faulty['rpc_retries']:.0f} / {faulty['rpc_timeouts']:.0f}"],
                ["failure detections / recoveries",
                 f"{faulty.get('failure_detections', 0.0):.0f} / "
                 f"{faulty.get('failure_recoveries', 0.0):.0f}"],
                ["repairs", f"{faulty.get('repairs', 0.0):.0f}"],
                ["unavailability",
                 f"{faulty.get('unavailability_seconds', 0.0):.1f} s"],
            ]
        )
    if result.system.consistency_plane is not None:
        stale = staleness_metrics(result.system, config.duration)
        rows.extend(
            [
                ["writes applied / propagated",
                 f"{stale['writes_applied']:.0f} / "
                 f"{stale['updates_propagated']:.0f}"],
                ["stale reads",
                 f"{stale['stale_reads']:.0f} "
                 f"({stale['stale_read_fraction']:.2%} of reads)"],
                ["divergence windows / max",
                 f"{stale['divergence_windows_opened']:.0f} / "
                 f"{stale['divergence_window_max_seconds']:.1f} s"],
                ["read repairs",
                 f"{stale['read_repairs']:.0f} of "
                 f"{stale['read_repair_attempts']:.0f} attempts"],
                ["anti-entropy repushes",
                 f"{stale.get('anti_entropy_repushes', 0.0):.0f}"],
            ]
        )
    print()
    print(format_table(["metric", "value"], rows))
    if args.json_out:
        write_json(args.json_out, {**metrics, **extra})
        print(f"wrote metrics to {args.json_out}")
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------


def populate_trace(parser: argparse.ArgumentParser) -> None:
    add_scenario_options(parser, default_duration=600.0)
    add_flags(parser, ScenarioConfig(), group="trace")
    parser.add_argument(
        "--kind",
        choices=list(RECORD_KINDS),
        action="append",
        help="emit only this record kind (repeatable; every kind when omitted)",
    )
    parser.add_argument(
        "--out",
        default="-",
        type=output_path,
        help="output path for the JSONL trace ('-', stdout, when omitted)",
    )


def trace_main(args: argparse.Namespace) -> int:
    config = scenario_from_args(args).replace(traced=True)
    print(f"tracing {config.name!r} ...", file=sys.stderr)
    result = run_scenario(config)
    trace = result.trace
    if args.kind:
        records = [r for r in trace.records() if r.kind in set(args.kind)]
    else:
        records = trace.records()
    if args.out == "-":
        dump_jsonl(records, sys.stdout)
    else:
        count = write_jsonl(records, args.out)
        print(f"wrote {count} records to {args.out}", file=sys.stderr)
    print(json.dumps(trace.summary(), indent=2), file=sys.stderr)
    return 0
