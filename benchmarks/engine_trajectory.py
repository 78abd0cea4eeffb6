"""Emit the ``BENCH_engine.json`` perf-trajectory artifact.

Standalone (no pytest-benchmark): times the substrate shapes from
``benchmarks/bench_engine_throughput.py`` with ``perf_counter`` and
writes one JSON document recording the engine's measured throughput,
alongside the pre-overhaul numbers, so every CI run extends a recorded
perf trajectory instead of a point-in-time anecdote.

Shapes
------
* ``event_loop``        — bare self-scheduling tick (scheduling latency)
* ``event_loop_drain``  — 200k pre-scheduled events drained by ``run()``;
  the bare event-loop throughput number: no protocol code, per-pop cost
  with a deep pending queue — the shape large scenarios live in
* ``batched_schedule_drain`` — ``post_batch`` a 200k arrival vector, then
  drain (the batched-workload scheduling path end to end)
* ``request_pipeline``  — full request flow over the UUNET backbone
* ``large_topology``    — a complete 500-host / 100k-object scenario run

Usage::

    python benchmarks/engine_trajectory.py --out BENCH_engine.json --quick

``--quick`` is the CI mode: fewer repeats and a 20-second simulated
horizon for the large-topology run.  The committed
``benchmarks/reports/engine_baseline.json`` is a ``--quick`` artifact;
regenerate it (same flag) after an intentional engine change and gate
with ``python benchmarks/compare_baseline.py --engine BENCH_engine.json``.

The repo root also commits a ``BENCH_engine.json``: the same artifact
plus a ``history`` list with one compact point per PR, so the measured
perf trajectory lives in the repo.  Extend it after a perf-relevant
change with::

    python benchmarks/engine_trajectory.py --quick --append-history \
        --label "<short change description>" --out BENCH_engine.json

(the gate ignores the extra ``history`` key, so the root artifact is
directly comparable with ``--engine`` as well).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import ProtocolConfig  # noqa: E402
from repro.core.protocol import HostingSystem  # noqa: E402
from repro.network.transport import Network  # noqa: E402
from repro.routing.routes_db import RoutingDatabase  # noqa: E402
from repro.scenarios.presets import large_topology_scenario  # noqa: E402
from repro.scenarios.runner import run_scenario  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.topology.uunet import uunet_backbone  # noqa: E402

SCHEMA = "engine-trajectory/v1"

#: Throughput of the same shapes measured at the pre-overhaul engine
#: (single binary heap over Event objects, per-event generators), on the
#: CI container class this trajectory started on.  These are the fixed
#: "before" anchors of the trajectory; current numbers are measured
#: fresh each run.  ``None`` where the shape did not exist before the
#: overhaul (no batch-scheduling path; the large-topology preset is new).
BEFORE = {
    "event_loop": {"events_per_sec": 1_500_000.0},
    "event_loop_drain": {"events_per_sec": 415_000.0},
    "batched_schedule_drain": None,
    "request_pipeline": {"requests_per_sec": 115_000.0},
    "large_topology": None,
}

EVENT_LOOP_EVENTS = 10_000
DRAIN_EVENTS = 200_000
PIPELINE_REQUESTS = 2_000


def _best_of(rounds: int, fn) -> float:
    """Best (min) wall time over ``rounds`` calls of ``fn``, seconds."""
    best = float("inf")
    for _ in range(rounds):
        elapsed = fn()
        if elapsed < best:
            best = elapsed
    return best


def bench_event_loop(rounds: int) -> dict:
    def one_round() -> float:
        sim = Simulator()
        count = EVENT_LOOP_EVENTS

        def tick():
            nonlocal count
            count -= 1
            if count:
                sim.schedule_after(0.001, tick)

        sim.schedule_after(0.001, tick)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert count == 0
        return elapsed

    best = _best_of(rounds, one_round)
    return {"events": EVENT_LOOP_EVENTS, "events_per_sec": EVENT_LOOP_EVENTS / best}


def bench_event_loop_drain(rounds: int) -> dict:
    def one_round() -> float:
        sim = Simulator()
        sink = []
        for i in range(DRAIN_EVENTS):
            sim.post_at(i * 1e-4, sink.append, i)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert len(sink) == DRAIN_EVENTS
        return elapsed

    best = _best_of(rounds, one_round)
    return {"events": DRAIN_EVENTS, "events_per_sec": DRAIN_EVENTS / best}


def bench_batched_schedule_drain(rounds: int) -> dict:
    def one_round() -> float:
        sim = Simulator()
        sink = []
        times = [i * 1e-4 for i in range(DRAIN_EVENTS)]
        args = [(i,) for i in range(DRAIN_EVENTS)]
        start = time.perf_counter()
        sim.post_batch(times, sink.append, args)
        sim.run()
        elapsed = time.perf_counter() - start
        assert len(sink) == DRAIN_EVENTS
        return elapsed

    best = _best_of(rounds, one_round)
    return {"events": DRAIN_EVENTS, "events_per_sec": DRAIN_EVENTS / best}


def bench_request_pipeline(rounds: int) -> dict:
    routes = RoutingDatabase(uunet_backbone())

    def one_round() -> float:
        sim = Simulator()
        network = Network(sim, routes, track_links=False)
        system = HostingSystem(
            sim, network, ProtocolConfig(), num_objects=100, enable_placement=False
        )
        system.initialize_round_robin()
        completed = 0

        def _count(obj, gateway, server, issued_at, response_hops):
            nonlocal completed
            completed += 1

        system.served_observers.append(_count)
        start = time.perf_counter()
        for i in range(PIPELINE_REQUESTS):
            system.submit_request(i % 53, i % 100)
            sim.run()
        elapsed = time.perf_counter() - start
        assert completed == PIPELINE_REQUESTS
        return elapsed

    best = _best_of(rounds, one_round)
    return {
        "requests": PIPELINE_REQUESTS,
        "requests_per_sec": PIPELINE_REQUESTS / best,
    }


def bench_large_topology(duration: float) -> dict:
    config, topology = large_topology_scenario(duration=duration)
    start = time.perf_counter()
    metrics = run_scenario(config, topology=topology)
    elapsed = time.perf_counter() - start
    completed = metrics.latency.completed
    return {
        "num_nodes": topology.num_nodes,
        "num_objects": config.num_objects,
        "duration_simulated_s": duration,
        "completed_requests": completed,
        "wall_s": round(elapsed, 3),
        "requests_per_sec": completed / elapsed,
    }


def run_trajectory(quick: bool) -> dict:
    rounds = 3 if quick else 5
    duration = 20.0 if quick else 120.0
    results = {
        "event_loop": bench_event_loop(rounds),
        "event_loop_drain": bench_event_loop_drain(rounds),
        "batched_schedule_drain": bench_batched_schedule_drain(rounds),
        "request_pipeline": bench_request_pipeline(rounds),
        "large_topology": bench_large_topology(duration),
    }
    speedups = {}
    for shape, before in BEFORE.items():
        if before is None:
            continue
        (rate_key, before_rate), = before.items()
        speedups[shape] = round(results[shape][rate_key] / before_rate, 2)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": sys.version.split()[0],
        "before": BEFORE,
        "results": results,
        "speedup_vs_before": speedups,
    }


def history_point(artifact: dict, label: str) -> dict:
    """Compact one run into a trajectory-history point.

    One of these per PR is appended to the committed root
    ``BENCH_engine.json``, so the repo carries the measured perf
    trajectory (shape rates plus the deterministic large-topology
    fingerprint) rather than only the latest number.
    """
    rates = {}
    for shape, result in artifact["results"].items():
        rate = result.get("events_per_sec") or result.get("requests_per_sec")
        rates[shape] = round(rate, 1)
    large = artifact["results"]["large_topology"]
    return {
        "label": label,
        "quick": artifact["quick"],
        "rates": rates,
        "large_topology": {
            key: large[key]
            for key in (
                "completed_requests",
                "requests_per_sec",
                "wall_s",
                "duration_simulated_s",
            )
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_engine.json", help="output artifact path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: fewer repeats, 20 s large-topology horizon",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help=(
            "carry forward the history list of an existing --out artifact "
            "and append this run as a new trajectory point"
        ),
    )
    parser.add_argument(
        "--label",
        default="HEAD",
        help="trajectory-point label used with --append-history",
    )
    args = parser.parse_args(argv)

    artifact = run_trajectory(args.quick)
    out_path = Path(args.out)
    if args.append_history:
        history: list[dict] = []
        if out_path.exists():
            history = json.loads(out_path.read_text()).get("history", [])
        history.append(history_point(artifact, args.label))
        artifact["history"] = history
    out_path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    for shape, result in artifact["results"].items():
        rate = result.get("events_per_sec") or result.get("requests_per_sec")
        unit = "ev/s" if "events_per_sec" in result else "req/s"
        speedup = artifact["speedup_vs_before"].get(shape)
        suffix = f"  ({speedup:.1f}x vs before)" if speedup else ""
        print(f"{shape:24s} {rate:>12,.0f} {unit}{suffix}")
    large = artifact["results"]["large_topology"]
    print(
        f"large_topology: {large['completed_requests']} requests over "
        f"{large['num_nodes']} hosts / {large['num_objects']} objects in "
        f"{large['wall_s']}s wall"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
