"""``sweep``: a scenario x seed x parameter grid across worker processes."""

from __future__ import annotations

import argparse
import sys

from repro.cli import parse_axes, write_json
from repro.cli.sim import add_scenario_options, scenario_from_args
from repro.errors import ConfigurationError
from repro.metrics.report import format_table
from repro.sweep import SweepSpec, default_workers, run_sweep, smoke_spec


def populate_sweep(parser: argparse.ArgumentParser) -> None:
    add_scenario_options(parser, default_duration=600.0)
    parser.add_argument(
        "--seeds",
        type=int,
        default=0,
        metavar="N",
        help="derive N seeds from --root-seed (when omitted: run --seed alone)",
    )
    parser.add_argument(
        "--seed-list",
        metavar="S1,S2,...",
        help="explicit comma-separated seeds (overrides --seeds)",
    )
    parser.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root seed for --seeds derivation (default: %(default)s)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
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
        help="worker processes (when omitted: REPRO_SWEEP_WORKERS or the "
        "CPU count, at most 8)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        help="per-run timeout in wall-clock seconds (workers > 1 only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for a run whose worker crashed (default: %(default)s)",
    )
    parser.add_argument(
        "--manifest", metavar="PATH", help="write the JSONL run manifest here"
    )
    parser.add_argument(
        "--json",
        dest="json_out",
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


def sweep_main(args: argparse.Namespace) -> int:
    if args.smoke:
        spec = smoke_spec()
    else:
        seeds: tuple[int, ...] = ()
        if args.seed_list:
            try:
                seeds = tuple(int(s) for s in args.seed_list.split(","))
            except ValueError:
                raise ConfigurationError(
                    f"bad --seed-list {args.seed_list!r}; expected S1,S2,... integers"
                ) from None
        spec = SweepSpec.grid(
            scenario_from_args(args),
            parse_axes(args.overrides),
            seeds=seeds,
            num_seeds=0 if seeds else args.seeds,
            root_seed=args.root_seed,
            name=f"{args.workload}-sweep",
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
        write_json(args.json_out, result.summary())
        print(f"wrote summary to {args.json_out}", file=sys.stderr)
    if args.manifest:
        print(f"wrote manifest to {args.manifest}", file=sys.stderr)
    return 0 if not result.failures else 1
