"""``gap``: the optimality-gap campaign against the offline oracle."""

from __future__ import annotations

import argparse
import sys

from repro.cli import output_path, parse_axes, write_json
from repro.errors import ConfigurationError
from repro.optimal.gap import GapSettings, quick_settings, run_gap_benchmark
from repro.schema import apply_overrides, set_keys


def populate_gap(parser: argparse.ArgumentParser) -> None:
    keys = set_keys(GapSettings())
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized campaign (small tree + backbone slice, 2 strategies)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_optgap.json",
        type=output_path,
        metavar="PATH",
        help="output JSON artifact, '-' for stdout (default: %(default)s)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=V1[,V2,...]",
        help=(
            "campaign axis or scalar (repeatable): "
            + " / ".join(key for key, axis in keys.items() if axis)
            + " take comma-separated value lists (gap.fault accepts 'none' "
            "for fault-free); "
            + " / ".join(key for key, axis in keys.items() if not axis)
            + " take one value"
        ),
    )


def gap_settings(args: argparse.Namespace) -> GapSettings:
    """The campaign a parsed ``gap`` command line describes: a tuple
    field of :class:`GapSettings` is an axis, a scalar field takes
    exactly one value."""
    settings = quick_settings() if args.quick else GapSettings()
    keys = set_keys(settings)
    overrides: dict[str, object] = {}
    for key, values in parse_axes(args.overrides).items():
        if keys.get(key, True):
            overrides[key] = values
        elif len(values) == 1:
            overrides[key] = values[0]
        else:
            raise ConfigurationError(f"--set {key} takes exactly one value")
    return apply_overrides(settings, overrides)


def gap_main(args: argparse.Namespace) -> int:
    settings = gap_settings(args)

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
    write_json(args.out, payload)
    if args.out != "-":
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
