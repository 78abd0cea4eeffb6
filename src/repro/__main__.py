"""Command-line interface: ``python -m repro <command>``.

One parser, seven subcommands:

``run``
    One paper scenario in the simulator, printing the evaluation
    summary.  For backwards compatibility, invoking ``python -m repro``
    with bare flags (no subcommand) means ``run``:

        python -m repro run --workload regional --scale 0.15 --duration 1800
        python -m repro run --workload zipf --loss 0.05 --outage 3:60:120
        python -m repro run --workload zipf --check-invariants --json run.json

``trace``
    A scenario with the decision tracer attached, emitting the
    structured protocol trace as JSONL (stdout by default):

        python -m repro trace --preset zipf > trace.jsonl

``sweep``
    A scenario x seed x parameter grid fanned out across worker
    processes, with aggregate statistics:

        python -m repro sweep --preset zipf --seeds 4 --workers 4
        python -m repro sweep --smoke --json bench_smoke.json   # the CI gate

``gap``
    The optimality-gap campaign: the same seeded workload replayed
    through the protocol and each selected baseline strategy, with the
    offline-optimal assignment cost of every run's own demand trace as
    the yardstick (``gap_ratio = protocol_cost / oracle_cost >= 1``):

        python -m repro gap --quick --out BENCH_optgap.json
        python -m repro gap --set gap.load_scale=0.5,1,2 \\
            --set gap.fault=none,600 --set gap.strategy=paper,static

``profile``
    One scenario run under ``cProfile`` with its wall time attributed
    to pipeline stages (request pipeline, event engine, workload
    generation, metrics, placement), plus honest unprofiled stage
    wall-clocks.  For looking; numbers to quote come from ``bench/run.py``:

        python -m repro profile --large --duration 20 --json profile.json
        python -m repro profile --preset zipf --loss 0.02

``serve``
    The live asyncio serving runtime — the same protocol over real
    sockets.  Runs a whole deployment in one process (optionally
    sharded: ``--shards N`` puts N redirector shards behind a gateway),
    or a single role (``redirector``, ``gateway``, ``shard``, ``host``)
    for multi-process deployments.  With ``--base-port 0`` every role
    binds an ephemeral port, publishes it via ``--port-file``, and
    registers with the front door given by ``--gateway``.  Exits
    cleanly on SIGINT/SIGTERM, exporting metrics (and the trace) on
    the way down:

        python -m repro serve --hosts 3 --metrics live.json
        python -m repro serve --shards 4 --hosts 3
        python -m repro serve --role shard --shard 1 --base-port 0 \\
            --gateway 127.0.0.1:8100 --port-file s1.port
        python -m repro serve --role host --node 1 --config live.json

``loadgen``
    The load generator that drives a live deployment through the
    redirector at a target open-loop request rate.  ``--processes``
    forks workers that split the load and merge latency histograms;
    ``--route-only`` measures the redirector tier alone; ``--direct``
    routes each request straight to the owning shard:

        python -m repro loadgen --workload zipf --rate 150 --requests 1000
        python -m repro loadgen --shards 4 --route-only --direct \\
            --processes 2 --rate 2000 --requests 20000
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro import __version__
from repro.errors import ConfigurationError, TopologyError, WorkloadError
from repro.metrics.report import format_table, series_summary
from repro.obs.export import dump_jsonl, write_jsonl
from repro.obs.records import RECORD_KINDS
from repro.obs.tracer import DEFAULT_CAPACITY
from repro.scenarios.presets import WORKLOAD_NAMES, paper_scenario
from repro.scenarios.runner import run_scenario
from repro.sweep import SweepSpec, default_workers, run_sweep, smoke_spec

COMMANDS = ("run", "trace", "sweep", "gap", "profile", "serve", "loadgen")


# ----------------------------------------------------------------------
# Shared option groups
# ----------------------------------------------------------------------


def _add_scenario_options(
    parser: argparse.ArgumentParser,
    *,
    workload_flag: str,
    default_duration: float,
    with_seed: bool = True,
) -> None:
    """The scenario axis shared by run/trace/sweep."""
    parser.add_argument(
        workload_flag,
        choices=[*WORKLOAD_NAMES, "uniform"],
        default="zipf",
        help="request pattern (default: zipf)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.15,
        help="load-axis scale relative to Table 1 (default: 0.15)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=default_duration,
        help=f"simulated seconds (default: {default_duration:g})",
    )
    if with_seed:
        parser.add_argument(
            "--seed", type=int, default=1, help="scenario seed (default: 1)"
        )
    parser.add_argument(
        "--high-load",
        action="store_true",
        help="use the Figure 9 watermarks (50/40 instead of 90/80)",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    faults = parser.add_argument_group(
        "fault injection",
        "any of these enables the unreliable-network fault plane",
    )
    faults.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="per-message drop probability in [0, 1)",
    )
    faults.add_argument(
        "--dup",
        type=float,
        default=None,
        metavar="P",
        help="per-message duplication probability in [0, 1)",
    )
    faults.add_argument(
        "--jitter",
        type=float,
        default=None,
        metavar="F",
        help="extra delay jitter as a fraction of the base delay",
    )
    faults.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="S",
        help="mean time between host failures (with --mttr: random outages)",
    )
    faults.add_argument(
        "--mttr",
        type=float,
        default=None,
        metavar="S",
        help="mean time to repair a failed host",
    )
    faults.add_argument(
        "--outage",
        action="append",
        default=None,
        metavar="NODE:AT:DUR",
        help="crash NODE at AT seconds for DUR seconds (repeatable)",
    )
    faults.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="NODES:AT:DUR",
        help="partition the comma-separated NODES from the rest at AT "
        "seconds for DUR seconds, e.g. 0,1,2:90:60 (repeatable)",
    )


def _add_consistency_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "consistency plane",
        "any of these enables Sec. 5 provider writes and repair loops",
    )
    group.add_argument(
        "--write-rate",
        type=float,
        default=None,
        metavar="R",
        help="provider updates per second across the whole system",
    )
    group.add_argument(
        "--category-mix",
        default=None,
        metavar="C1:C2:C3",
        help="object fractions per consistency category, e.g. 0.8:0.15:0.05",
    )
    group.add_argument(
        "--epidemic-interval",
        type=float,
        default=None,
        metavar="S",
        help="batch category-1 updates and flush every S seconds "
        "(default: propagate immediately)",
    )
    group.add_argument(
        "--anti-entropy-interval",
        type=float,
        default=None,
        metavar="S",
        help="digest-exchange repair round period in seconds",
    )


def _add_live_config_options(parser: argparse.ArgumentParser) -> None:
    """The live-deployment world model shared by serve/loadgen."""
    live = parser.add_argument_group(
        "live deployment",
        "--config JSON is the base; the flags override individual fields",
    )
    live.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="LiveConfig JSON (shared across the deployment's processes)",
    )
    live.add_argument(
        "--hosts",
        dest="num_hosts",
        type=int,
        default=None,
        help="number of replica hosts (default: 3)",
    )
    live.add_argument(
        "--topology",
        choices=("line", "ring", "star"),
        default=None,
        help="backbone linking the hosts (default: ring)",
    )
    live.add_argument(
        "--objects",
        dest="num_objects",
        type=int,
        default=None,
        help="hosted object count (default: 24)",
    )
    live.add_argument(
        "--object-size",
        type=int,
        default=None,
        metavar="BYTES",
        help="bytes served per object request (default: 8192)",
    )
    live.add_argument(
        "--bind",
        dest="bind_host",
        default=None,
        metavar="HOST",
        help="listen/connect address (default: 127.0.0.1)",
    )
    live.add_argument(
        "--base-port",
        type=int,
        default=None,
        metavar="PORT",
        help="front-door port; 0 binds ephemeral ports everywhere "
        "(default: 8100)",
    )
    live.add_argument(
        "--shards",
        dest="num_shards",
        type=int,
        default=None,
        help="redirector shards partitioning the namespace (default: 1)",
    )
    live.add_argument(
        "--measurement-interval",
        type=float,
        default=None,
        metavar="S",
        help="load measurement interval in seconds (default: 1)",
    )
    live.add_argument(
        "--placement-interval",
        type=float,
        default=None,
        metavar="S",
        help="placement interval in seconds (default: 3)",
    )
    live.add_argument(
        "--high-watermark",
        type=float,
        default=None,
        metavar="RPS",
        help="offloading high watermark in requests/sec (default: 160)",
    )
    live.add_argument(
        "--low-watermark",
        type=float,
        default=None,
        metavar="RPS",
        help="offloading low watermark in requests/sec (default: 120)",
    )


def _live_config(args: argparse.Namespace):
    from repro.live.deploy import load_config

    return load_config(
        args.config,
        {
            "num_hosts": args.num_hosts,
            "topology": args.topology,
            "num_objects": args.num_objects,
            "object_size": args.object_size,
            "bind_host": args.bind_host,
            "base_port": args.base_port,
            "num_shards": args.num_shards,
            "measurement_interval": args.measurement_interval,
            "placement_interval": args.placement_interval,
            "high_watermark": args.high_watermark,
            "low_watermark": args.low_watermark,
        },
    )


# ----------------------------------------------------------------------
# Per-command parsers
# ----------------------------------------------------------------------


def _populate_run_parser(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(
        parser, workload_flag="--workload", default_duration=1800.0
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="disable dynamic placement (the static baseline)",
    )
    parser.add_argument(
        "--strategy",
        default="paper",
        metavar="NAME",
        help="placement strategy from the baselines registry "
        "(default: paper; see repro.baselines.STRATEGIES)",
    )
    parser.add_argument(
        "--distribution",
        choices=["paper", "round-robin", "closest"],
        default="paper",
        help="request-distribution policy (default: paper)",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="verify protocol invariants at the end of the run",
    )
    _add_fault_options(parser)
    _add_consistency_options(parser)
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the run's scalar metrics as JSON here",
    )


def _populate_trace_parser(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(
        parser, workload_flag="--preset", default_duration=600.0
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=DEFAULT_CAPACITY,
        help=f"per-kind trace ring capacity (default: {DEFAULT_CAPACITY})",
    )
    parser.add_argument(
        "--kind",
        choices=list(RECORD_KINDS),
        action="append",
        default=None,
        help="emit only this record kind (repeatable; default: all)",
    )
    parser.add_argument(
        "--out",
        default="-",
        help="output path for the JSONL trace ('-' = stdout, the default)",
    )


def _populate_sweep_parser(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(
        parser, workload_flag="--preset", default_duration=600.0, with_seed=False
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=0,
        metavar="N",
        help="derive N seeds from --root-seed (default: the preset's seed)",
    )
    parser.add_argument(
        "--seed-list",
        default=None,
        metavar="S1,S2,...",
        help="explicit comma-separated seeds (overrides --seeds)",
    )
    parser.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root seed for --seeds derivation (default: 0)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=None,
        metavar="KEY=V1[,V2,...]",
        help=(
            "grid axis: dotted config key and comma-separated values, e.g. "
            "protocol.placement_interval=50,100 (repeatable; axes combine "
            "as a cartesian product)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: REPRO_SWEEP_WORKERS or CPU count, max 8)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run timeout in wall-clock seconds (workers > 1 only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for a run whose worker crashed (default: 1)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the JSONL run manifest here",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="write the aggregate sweep summary as JSON here",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "ignore scenario options and run the canonical CI smoke sweep "
            "(fixed spec shared with benchmarks/reports/baseline.json)"
        ),
    )


def _populate_gap_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized campaign (small tree + backbone slice, 2 strategies)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_optgap.json",
        metavar="PATH",
        help="output JSON artifact ('-' = stdout; default: BENCH_optgap.json)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=None,
        metavar="KEY=V1[,V2,...]",
        help=(
            "campaign axis or scalar: gap.topology / gap.load_scale / "
            "gap.fault / gap.strategy take comma-separated value lists "
            "(gap.fault accepts 'none' for fault-free); gap.seed / "
            "gap.workload / gap.duration / gap.objects / gap.rate / "
            "gap.capacity / gap.top_objects take one value (repeatable)"
        ),
    )


def _populate_serve_parser(parser: argparse.ArgumentParser) -> None:
    _add_live_config_options(parser)
    parser.add_argument(
        "--role",
        choices=("all", "redirector", "gateway", "shard", "host"),
        default="all",
        help="which role this process runs (default: all, single-process)",
    )
    parser.add_argument(
        "--node",
        type=int,
        default=None,
        help="host node id (required with --role host)",
    )
    parser.add_argument(
        "--shard",
        type=int,
        default=None,
        help="shard id (required with --role shard)",
    )
    parser.add_argument(
        "--gateway",
        default=None,
        metavar="HOST:PORT",
        help="front-door address to register with (ephemeral-port "
        "shard/host roles)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write this process's bound port to PATH after binding "
        "(port-conflict-proof launches: use with --base-port 0)",
    )
    parser.add_argument(
        "--serve-duration",
        type=float,
        default=None,
        metavar="S",
        help="exit after S seconds instead of waiting for a signal",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_out",
        default=None,
        metavar="PATH",
        help="write the deployment metrics snapshot as JSON on shutdown",
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        default=None,
        metavar="PATH",
        help="attach the decision tracer and write its JSONL on shutdown",
    )


def _populate_loadgen_parser(parser: argparse.ArgumentParser) -> None:
    _add_live_config_options(parser)
    parser.add_argument(
        "--workload",
        choices=("uniform", "zipf", "hot_sites", "regional"),
        default="zipf",
        help="request pattern to replay (default: zipf)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=120.0,
        help="target request rate in requests/sec (default: 120)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="total requests to issue (default: 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="sampler seed (default: 1)"
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=1,
        help="popularity phases (ids re-permuted per phase; default: 1)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="max in-flight requests (default: 64)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="loadgen worker processes; load and seeds split across them "
        "and latency histograms merge at the end (default: 1)",
    )
    parser.add_argument(
        "--route-only",
        action="store_true",
        help="measure the redirector tier alone: GET /route without the "
        "object fetch",
    )
    parser.add_argument(
        "--direct",
        action="store_true",
        help="partition-aware routing: discover shard endpoints from the "
        "front door and send each /route straight to the owning shard",
    )
    parser.add_argument(
        "--max-lag",
        dest="max_sched_lag",
        type=float,
        default=None,
        metavar="S",
        help="drop arrivals more than S seconds behind schedule instead "
        "of issuing them late (default: never drop, count late arrivals)",
    )
    parser.add_argument(
        "--redirector",
        default=None,
        metavar="HOST:PORT",
        help="front-door address (default: derived from the live config)",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="write the client-side metrics as JSON here",
    )


def build_cli() -> argparse.ArgumentParser:
    """The unified ``python -m repro`` parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the ICDCS 1999 dynamic object replication "
            "and migration protocol: simulator, sweeps, and a live "
            "serving runtime."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _populate_run_parser(
        sub.add_parser("run", help="run one simulated scenario")
    )
    _populate_trace_parser(
        sub.add_parser("trace", help="run a scenario and emit a JSONL decision trace")
    )
    _populate_sweep_parser(
        sub.add_parser("sweep", help="fan a scenario grid across worker processes")
    )
    _populate_gap_parser(
        sub.add_parser(
            "gap", help="measure the protocol's optimality gap against the oracle"
        )
    )
    _populate_profile_parser(
        sub.add_parser(
            "profile", help="attribute a scenario's wall time to pipeline stages"
        )
    )
    _populate_serve_parser(
        sub.add_parser("serve", help="run the live serving runtime over real sockets")
    )
    _populate_loadgen_parser(
        sub.add_parser("loadgen", help="drive load through a live deployment")
    )
    return parser


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _parse_outage(text: str) -> tuple[int, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SystemExit(f"bad --outage {text!r}; expected NODE:AT:DUR")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise SystemExit(f"bad --outage {text!r}; expected NODE:AT:DUR") from None


def _parse_partition(text: str) -> tuple[tuple[int, ...], float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SystemExit(f"bad --partition {text!r}; expected NODES:AT:DUR")
    try:
        nodes = tuple(int(node) for node in parts[0].split(","))
        return nodes, float(parts[1]), float(parts[2])
    except ValueError:
        raise SystemExit(
            f"bad --partition {text!r}; expected NODES:AT:DUR"
        ) from None


def _fault_config(args: argparse.Namespace):
    """A FaultConfig from CLI flags, or None when none were given."""
    flags = (
        args.loss,
        args.dup,
        args.jitter,
        args.mtbf,
        args.mttr,
        args.outage,
        args.partition,
    )
    if all(value is None for value in flags):
        return None
    if (args.mtbf is None) != (args.mttr is None):
        raise SystemExit("--mtbf and --mttr must be given together")
    from repro.network.faults import FaultConfig

    return FaultConfig(
        enabled=True,
        drop_prob=args.loss or 0.0,
        duplicate_prob=args.dup or 0.0,
        delay_jitter=args.jitter or 0.0,
        mtbf=args.mtbf,
        mttr=args.mttr,
        outages=tuple(_parse_outage(o) for o in args.outage or ()),
        partitions=tuple(_parse_partition(p) for p in args.partition or ()),
    )


def _consistency_config(args: argparse.Namespace):
    """A ConsistencyConfig from CLI flags, or None when none were given."""
    flags = (
        args.write_rate,
        args.category_mix,
        args.epidemic_interval,
        args.anti_entropy_interval,
    )
    if all(value is None for value in flags):
        return None
    from repro.consistency.config import ConsistencyConfig

    return ConsistencyConfig(
        write_rate=args.write_rate or 0.0,
        category_mix=args.category_mix or (1.0, 0.0, 0.0),
        epidemic_interval=args.epidemic_interval,
        anti_entropy_interval=args.anti_entropy_interval,
    )


def _with_fault_and_consistency(config, args: argparse.Namespace):
    """Apply the fault-injection and consistency flag groups to ``config``."""
    faults = _fault_config(args)
    if faults is not None:
        config = config.replace(faults=faults)
    consistency = _consistency_config(args)
    if consistency is not None:
        config = config.replace(consistency=consistency)
    return config


def run_config(args: argparse.Namespace):
    """The :class:`ScenarioConfig` a parsed ``run`` command line describes."""
    config = paper_scenario(
        args.workload,
        high_load=args.high_load,
        dynamic=not args.static,
        scale=args.scale,
        duration=args.duration,
        seed=args.seed,
    ).replace(
        distribution=args.distribution,
        strategy=args.strategy,
        check_invariants=args.check_invariants,
    )
    return _with_fault_and_consistency(config, args)


def run_main(args: argparse.Namespace) -> int:
    from repro.obs.profile import safe_metrics

    config = run_config(args)
    print(f"running {config.name!r} ({args.distribution} distribution) ...")
    result = run_scenario(config)
    # Start/equilibrium statistics need two full buckets; a short run
    # reports them as n/a instead of failing after the simulation.
    metrics = safe_metrics(result)
    engine_mode = result.engine_mode()

    def shown(name: str, spec: str, unit: str = "") -> str:
        value = metrics.get(name)
        return "n/a" if value is None else f"{value:{spec}}{unit}"

    print()
    print(series_summary("bandwidth (byte-hops/min)", result.bandwidth.payload_series()))
    print(series_summary("mean latency (s)", result.latency.mean_latency_series()))
    rows = [
        ["engine", engine_mode],
        ["requests serviced / dropped",
         f"{result.latency.completed} / {result.latency.dropped}"],
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
        from repro.metrics.availability import fault_metrics

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
        from repro.metrics.staleness import staleness_metrics

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
        with open(args.json_out, "w") as handle:
            json.dump(
                {**metrics, "engine_mode": engine_mode},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote metrics to {args.json_out}")
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------


def trace_main(args: argparse.Namespace) -> int:
    config = paper_scenario(
        args.preset,
        high_load=args.high_load,
        scale=args.scale,
        duration=args.duration,
        seed=args.seed,
    ).replace(traced=True, trace_capacity=args.capacity)
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


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _parse_override_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    return text


def _parse_axes(pairs: list[str] | None) -> dict[str, list]:
    axes: dict[str, list] = {}
    for pair in pairs or []:
        key, sep, values = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --set {pair!r}; expected KEY=V1[,V2,...]")
        axes[key] = [
            _parse_override_value(v) for v in values.split(",") if v != ""
        ]
        if not axes[key]:
            raise ConfigurationError(f"bad --set {pair!r}: {key} has no values")
    return axes


def sweep_main(args: argparse.Namespace) -> int:
    if args.smoke:
        spec = smoke_spec()
    else:
        base = paper_scenario(
            args.preset,
            high_load=args.high_load,
            scale=args.scale,
            duration=args.duration,
        )
        seeds: tuple[int, ...] = ()
        if args.seed_list:
            try:
                seeds = tuple(int(s) for s in args.seed_list.split(","))
            except ValueError:
                raise ConfigurationError(
                    f"bad --seed-list {args.seed_list!r}; expected S1,S2,... integers"
                ) from None
        spec = SweepSpec.grid(
            base,
            _parse_axes(args.overrides),
            seeds=seeds,
            num_seeds=0 if seeds else args.seeds,
            root_seed=args.root_seed,
            name=f"{args.preset}-sweep",
        )
    workers = args.workers if args.workers is not None else default_workers()
    runs = spec.runs()
    print(
        f"sweep {spec.name!r}: {len(runs)} runs "
        f"({len(spec.points)} points x {len(spec.resolved_seeds())} seeds), "
        f"{workers} worker(s), spec {spec.spec_hash()}",
        file=sys.stderr,
    )
    result = run_sweep(
        spec,
        workers=workers,
        timeout=args.timeout,
        retries=args.retries,
        manifest_path=args.manifest,
    )
    for point, metrics in result.aggregate().items():
        rows = [
            [name, f"{s.mean:.4g}", f"{s.stdev:.3g}", f"{s.ci95:.3g}"]
            for name, s in metrics.items()
        ]
        print(f"\n[{point}]")
        print(format_table(["metric", "mean", "stdev", "95% CI"], rows))
    print(
        f"\n{len(result.ok_records)}/{len(result.records)} runs ok in "
        f"{result.wall_time_s:.1f}s wall "
        f"({result.throughput():.0f} serviced requests/s)"
    )
    for failure in result.failures:
        print(
            f"FAILED run {failure.index} ({failure.point}/seed={failure.seed}): "
            f"{failure.status}: {failure.error}",
            file=sys.stderr,
        )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote summary to {args.json_out}", file=sys.stderr)
    if args.manifest:
        print(f"wrote manifest to {args.manifest}", file=sys.stderr)
    return 0 if not result.failures else 1


# ----------------------------------------------------------------------
# gap
# ----------------------------------------------------------------------

#: ``--set`` keys that fan out a campaign axis (value lists allowed).
_GAP_AXES = {
    "gap.topology": "topologies",
    "gap.load_scale": "load_scales",
    "gap.fault": "fault_mtbfs",
    "gap.strategy": "strategies",
}

#: ``--set`` keys that replace one scalar campaign setting.
_GAP_SCALARS = {
    "gap.seed": "seed",
    "gap.workload": "workload",
    "gap.duration": "duration",
    "gap.objects": "num_objects",
    "gap.rate": "node_request_rate",
    "gap.capacity": "capacity",
    "gap.top_objects": "top_objects",
}


def _gap_settings(args: argparse.Namespace):
    import dataclasses

    from repro.optimal.gap import GapSettings, quick_settings
    from repro.sweep.spec import reject_text

    def number(key: str, value) -> float:
        if isinstance(value, (str, bool)):
            raise ConfigurationError(f"bad --set {key}: {value!r} is not a number")
        return float(value)

    settings = quick_settings() if args.quick else GapSettings()
    changes: dict[str, object] = {}
    for key, values in _parse_axes(args.overrides).items():
        if key in _GAP_AXES:
            if key == "gap.fault":
                parsed = tuple(
                    None if v in ("none", "off", 0) else number(key, v)
                    for v in values
                )
            elif key == "gap.load_scale":
                parsed = tuple(number(key, v) for v in values)
            else:
                parsed = tuple(str(v) for v in values)
            changes[_GAP_AXES[key]] = parsed
        elif key in _GAP_SCALARS:
            if len(values) != 1:
                raise SystemExit(f"--set {key} takes exactly one value")
            reject_text(key, values[0], getattr(settings, _GAP_SCALARS[key]))
            changes[_GAP_SCALARS[key]] = values[0]
        else:
            known = ", ".join(sorted([*_GAP_AXES, *_GAP_SCALARS]))
            raise SystemExit(f"unknown --set key {key!r}; known: {known}")
    if changes:
        settings = dataclasses.replace(settings, **changes)
    return settings


def gap_main(args: argparse.Namespace) -> int:
    from repro.optimal.gap import run_gap_benchmark

    settings = _gap_settings(args)

    def progress(topology: str, load: float, mtbf, strategy: str) -> None:
        print(
            f"  {topology} load={load:g} mtbf={mtbf} strategy={strategy}",
            file=sys.stderr,
            flush=True,
        )

    total = (
        len(settings.topologies)
        * len(settings.load_scales)
        * len(settings.fault_mtbfs)
        * len(settings.strategies)
    )
    print(f"gap campaign: {total} points ...", file=sys.stderr)
    payload = run_gap_benchmark(settings, progress=progress)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(payload['points'])} gap points to {args.out}")
    worst = max(payload["points"], key=lambda p: p["gap_ratio"])
    print(
        f"worst gap: {worst['gap_ratio']:.4f} ({worst['topology']}, "
        f"load={worst['load_scale']:g}, mtbf={worst['fault_mtbf']}, "
        f"{worst['strategy']})",
        file=sys.stderr,
    )
    bad = [p for p in payload["points"] if p["gap_ratio"] < 1.0 - 1e-9]
    if bad:
        print(
            f"ERROR: {len(bad)} point(s) below 1.0 — the oracle is not a "
            "lower bound",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# serve / loadgen (the live runtime)
# ----------------------------------------------------------------------


def _parse_hostport(value: str, flag: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep:
        raise SystemExit(f"{flag} must be HOST:PORT")
    return host, int(port)


def serve_main(args: argparse.Namespace) -> int:
    from repro.live.deploy import (
        serve_all,
        serve_gateway,
        serve_host,
        serve_redirector,
        serve_shard,
    )

    config = _live_config(args)
    gateway = (
        _parse_hostport(args.gateway, "--gateway") if args.gateway else None
    )
    if args.role == "all":
        coroutine = serve_all(
            config,
            metrics_path=args.metrics_out,
            trace_path=args.trace_out,
            duration=args.serve_duration,
            port_file=args.port_file,
        )
    elif args.role == "redirector":
        coroutine = serve_redirector(
            config, metrics_path=args.metrics_out, port_file=args.port_file
        )
    elif args.role == "gateway":
        coroutine = serve_gateway(
            config, metrics_path=args.metrics_out, port_file=args.port_file
        )
    elif args.role == "shard":
        if args.shard is None:
            raise SystemExit("--role shard needs --shard")
        coroutine = serve_shard(
            config,
            args.shard,
            gateway=gateway,
            metrics_path=args.metrics_out,
            port_file=args.port_file,
        )
    else:
        if args.node is None:
            raise SystemExit("--role host needs --node")
        coroutine = serve_host(
            config,
            args.node,
            gateway=gateway,
            metrics_path=args.metrics_out,
            port_file=args.port_file,
        )
    asyncio.run(coroutine)
    return 0


def loadgen_main(args: argparse.Namespace) -> int:
    from repro.live.loadgen import (
        LoadgenOptions,
        run_loadgen,
        run_loadgen_multiprocess,
    )
    from repro.live.metrics import format_live_summary

    config = _live_config(args)
    if args.redirector:
        redirector = _parse_hostport(args.redirector, "--redirector")
    else:
        redirector = config.redirector_address()
        if redirector[1] == 0:
            raise SystemExit(
                "ephemeral-port config: pass --redirector HOST:PORT"
            )
    shard_endpoints = None
    if args.direct:
        from repro.live.client import http_json

        reply = http_json(redirector, "GET", "/admin/endpoints")
        shard_endpoints = {
            int(shard): (str(address[0]), int(address[1]))
            for shard, address in (reply.get("shards") or {}).items()
        }
        if not shard_endpoints:
            raise SystemExit(
                "--direct: the front door reports no shard endpoints"
            )
    options = LoadgenOptions(
        workload=args.workload,
        rate=args.rate,
        requests=args.requests,
        seed=args.seed,
        phases=args.phases,
        concurrency=args.concurrency,
        route_only=args.route_only,
        max_sched_lag=args.max_sched_lag,
        shard_endpoints=shard_endpoints,
    )

    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} requests issued", file=sys.stderr)

    if args.processes > 1:
        stats = run_loadgen_multiprocess(
            redirector, config, options, processes=args.processes
        )
    else:
        stats = asyncio.run(
            run_loadgen(redirector, config, options, on_progress=progress)
        )
    summary = stats.summary()
    print(format_live_summary(summary))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics to {args.json_out}", file=sys.stderr)
    return 0 if stats.completed > 0 and stats.failed == 0 else 1


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------


def _populate_profile_parser(parser: argparse.ArgumentParser) -> None:
    _add_scenario_options(
        parser, workload_flag="--preset", default_duration=120.0
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help="profile the 500-host / 100k-object large-topology preset "
        "instead of the UUNET paper scenario",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions to list by cumulative time (default: 25)",
    )
    _add_fault_options(parser)
    _add_consistency_options(parser)
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="write the full stage breakdown as JSON here",
    )


def profile_main(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_scenario, stage_walltimes

    topology = None
    if args.large:
        from repro.scenarios.presets import large_topology_scenario

        config, topology = large_topology_scenario(
            duration=args.duration, seed=args.seed, scale=args.scale
        )
    else:
        config = paper_scenario(
            workload=args.preset,
            scale=args.scale,
            duration=args.duration,
            seed=args.seed,
            high_load=args.high_load,
        )
    config = _with_fault_and_consistency(config, args)

    print(f"profiling {config.name} ({config.duration:g}s simulated)...")
    walls = stage_walltimes(config, topology=topology)
    breakdown = profile_scenario(config, topology=topology, top=args.top)
    breakdown["stage_walltimes"] = walls

    print(
        f"wall (unprofiled): build {walls['build_s']}s + "
        f"drain ~{walls['drain_estimate_s']}s = {walls['run_s']}s "
        f"-> {walls['requests_per_sec']:,.0f} req/s"
    )
    counters = breakdown["counters"]
    print(f"engine: {breakdown['engine_mode']}")
    print(
        f"requests: {counters['requests_completed']} completed "
        f"({counters['requests_fast_lane']} fast lane, "
        f"{counters['requests_general_path']} general path), "
        f"{counters['requests_dropped']} dropped, "
        f"{counters['requests_failed']} failed, "
        f"{counters['requests_lost']} lost"
    )
    print("\nprofiled time by pipeline stage (cProfile, inflated but mapped):")
    total = breakdown["profiled_seconds_total"] or 1.0
    for bucket, seconds in breakdown["stage_seconds"].items():
        print(f"  {bucket:24s} {seconds:8.3f}s  {seconds / total:6.1%}")
    print(f"\ntop functions by cumulative time (top {args.top}):")
    for entry in breakdown["top_functions"][:10]:
        print(
            f"  {entry['cumtime_s']:8.3f}s  {entry['calls']:>9} calls  "
            f"{entry['function']}"
        )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(breakdown, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote stage breakdown to {args.json_out}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

_COMMAND_MAINS = {
    "run": run_main,
    "trace": trace_main,
    "sweep": sweep_main,
    "gap": gap_main,
    "profile": profile_main,
    "serve": serve_main,
    "loadgen": loadgen_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Legacy compatibility: bare flags (or nothing) mean `run`.
    if not argv:
        argv = ["run"]
    elif argv[0] not in COMMANDS and argv[0] not in (
        "-h", "--help", "--version",
    ):
        argv = ["run", *argv]
    args = build_cli().parse_args(argv)
    try:
        return _COMMAND_MAINS[args.command](args)
    except (ConfigurationError, WorkloadError, TopologyError) as exc:
        # Bad input, not a bug: one line, argparse's exit status.
        # ProtocolError/SimulationError stay loud tracebacks on purpose.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
