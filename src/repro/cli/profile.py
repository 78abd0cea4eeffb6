"""``profile``: one scenario under cProfile, attributed to the benchmark's layers."""

from __future__ import annotations

import argparse

from repro.cli import output_path, write_json
from repro.cli.sim import add_scenario_options, scenario_from_args
from repro.errors import ConfigurationError
from repro.obs.profile import (
    event_census,
    memory_census,
    profile_scenario,
    stage_walltimes,
)
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import large_topology_scenario
from repro.topology.graph import Topology


def populate_profile(parser: argparse.ArgumentParser) -> None:
    add_scenario_options(parser, default_duration=120.0)
    parser.add_argument(
        "--large",
        action="store_true",
        help="profile the 500-host / 100k-object large-topology preset "
        "instead of the UUNET paper scenario",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="census the heap instead of the time: one run under tracemalloc, "
        "read at Simulator.run entry and at the horizon, by layer and by file",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions (with --memory: files) to list (default: %(default)s)",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        type=output_path,
        metavar="PATH",
        help="write the full layer breakdown as JSON here",
    )


def profile_main(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigurationError(f"--top must be at least 1, got {args.top}")
    base = topology = None
    if args.large:
        base, topology = large_topology_scenario(
            duration=args.duration, seed=args.seed, scale=args.scale
        )
    config = scenario_from_args(args, base)

    print(f"profiling {config.name} ({config.duration:g}s simulated)...")
    if args.memory:
        return _memory_main(args, config, topology)
    walls = stage_walltimes(config, topology=topology)
    breakdown = profile_scenario(config, topology=topology, top=args.top)
    breakdown["stage_walltimes"] = walls
    census = breakdown["event_census"] = event_census(config, topology=topology)
    walls["placement_s"] = census["placement_s"]

    print(
        f"wall (unprofiled): build {walls['build_s']}s + "
        f"drain {walls['drain_s']}s, {walls['run_s']}s in all "
        f"-> {walls['requests_per_sec']:,.0f} req/s; "
        f"placement rounds {walls['placement_s']}s (event census); "
        f"{walls['cyclic_objects']} cyclic objects at the horizon"
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
    print(
        f"\nby layer (cProfile: {breakdown['profiled_calls_total']:,} calls, "
        f"{breakdown['profiled_seconds_total']}s, inflated but mapped):"
        f"\n  {'layer':16s} {'calls/request':>13s} {'self share':>10s}"
    )
    shares = breakdown["self_share"]
    for layer, per_request in breakdown["calls_per_request"].items():
        print(f"  {layer:16s} {per_request:13.2f} {shares[layer]:10.1%}")
    print(f"\ntop functions by cumulative time (top {args.top}):")
    for entry in breakdown["top_functions"]:
        print(
            f"  {entry['cumtime_s']:8.3f}s  {entry['calls']:>9} calls  "
            f"{entry['function']}"
        )
    print(
        f"\nevent census: {census['events_per_request']:g} events per completed "
        f"request ({census['engine_mode']}); per request, share of drain wall:"
    )
    for label, row in list(census["callbacks"].items())[: args.top]:
        print(f"  {row['per_request']:8.4f}  {row['time_share']:6.1%}  {label}")
    if args.json_out:
        write_json(args.json_out, breakdown)
        print(f"\nwrote layer breakdown to {args.json_out}")
    return 0


def _memory_main(
    args: argparse.Namespace, config: ScenarioConfig, topology: Topology | None
) -> int:
    census = memory_census(config, topology=topology, top=args.top)
    entry, horizon = census["run_entry"], census["horizon"]
    print(f"engine: {census['engine_mode']}")
    print(f"requests: {census['requests_completed']} completed")
    print(f"cyclic objects at the horizon: {census['cyclic_objects']}")
    rss = census["rss_mb"]
    print(
        f"\nheap: traced {entry['total_mb']:.1f} of {rss['run_entry']:.0f} MB RSS "
        f"at Simulator.run entry, traced {horizon['total_mb']:.1f} of "
        f"{rss['horizon']:.0f} MB RSS at the horizon "
        f"({rss['start']:.0f} MB RSS before the census)"
    )
    for title, key in (("layer", "stage_mb"), ("allocating file", "file_mb")):
        print(f"\nby {title} (MB):{'run entry':>23s} {'horizon':>9s}")
        names = list(entry[key]) + [n for n in horizon[key] if n not in entry[key]]
        for name in names:
            at_entry = entry[key].get(name, 0.0)
            print(f"  {name:34s} {at_entry:9.2f} {horizon[key].get(name, 0.0):9.2f}")
    if args.json_out:
        write_json(args.json_out, census)
        print(f"\nwrote memory census to {args.json_out}")
    return 0
