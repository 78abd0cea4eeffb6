"""Pipeline profiling: attribute a scenario's wall time to its stages.

``python -m repro profile`` answers "where does the simulation spend its
time?" with two complementary views of one run:

* **Stage wall clock** — ``perf_counter`` brackets around the scenario
  lifecycle (build the system, attach collectors/generators, drain the
  event queue, finalize), plus per-stage counters (requests completed,
  fast-lane vs general-path requests, events drained) so each stage's
  time can be read as a per-unit cost.
* **Function attribution** — a ``cProfile`` capture of the drain phase,
  with cumulative time rolled up into pipeline buckets by module
  (request pipeline, event engine, workload generation, metrics,
  placement/offload, routing) alongside the usual top-function table.

cProfile inflates function-call-heavy code (its tracer charges every
Python call), so stage wall-clock numbers are the truth and the
attribution is the map; both are emitted so neither is over-read.

``profile --memory`` asks the other question — "what is the heap made
of?" — with the same map: one run under ``tracemalloc``, a snapshot at
``Simulator.run`` entry (everything the build left behind) and one at the
horizon, each rolled up by allocating module into the stage buckets
above and into a per-file table (:func:`memory_census`).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.sim.engine import Simulator
from repro.topology.graph import Topology

#: Module-path fragments mapped to pipeline stage buckets, first match
#: wins.  Paths use forward slashes (normalised before matching).
STAGE_BUCKETS: tuple[tuple[str, str], ...] = (
    ("repro/core/fastlane", "request_pipeline"),
    ("repro/core/protocol", "request_pipeline"),
    ("repro/core/redirector", "request_pipeline"),
    ("repro/core/host", "request_pipeline"),
    ("repro/sim/", "event_engine"),
    ("repro/workloads/", "workload_generation"),
    ("repro/metrics/", "metrics_collection"),
    ("repro/core/placement", "placement_protocol"),
    ("repro/core/offload", "placement_protocol"),
    ("repro/core/load_board", "placement_protocol"),
    ("repro/core/create_obj", "placement_protocol"),
    ("repro/load/", "placement_protocol"),
    ("repro/routing/", "routing"),
    ("repro/network/", "network_transport"),
    ("repro/", "other_repro"),
)


def _bucket_for(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, bucket in STAGE_BUCKETS:
        if fragment in path:
            return bucket
    return "runtime_other"


def safe_metrics(result: Any) -> dict[str, float]:
    """Scalar metrics of the run, tolerant of too-short horizons.

    A profiling run may end before the first load-measurement tick, in
    which case the series-derived metrics are undefined; fall back to
    the always-available request counters rather than failing the
    profile.
    """
    try:
        return scenario_metrics(result)
    except ConfigurationError:
        return {
            "requests_completed": float(result.latency.completed),
            "requests_dropped": float(result.latency.dropped),
            "requests_failed": float(result.latency.failed),
        }


def profile_scenario(
    config: ScenarioConfig,
    *,
    topology: Topology | None = None,
    top: int = 25,
) -> dict[str, Any]:
    """Run one scenario under the profiler; return the stage breakdown.

    The returned dict is JSON-safe: stage wall times and counters,
    cProfile bucket attribution, the top functions by cumulative time,
    and the run's scalar metrics (so a profile artifact also documents
    *what* ran).
    """
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    result = run_scenario(config, topology=topology)
    profiler.disable()
    wall = time.perf_counter() - wall_start

    stats = pstats.Stats(profiler)
    total_profiled = stats.total_tt

    buckets: dict[str, float] = {}
    for (filename, _line, _name), (
        _cc,
        _nc,
        tottime,
        _cumtime,
        _callers,
    ) in stats.stats.items():
        bucket = _bucket_for(filename)
        buckets[bucket] = buckets.get(bucket, 0.0) + tottime

    top_functions = []
    ordered = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )
    for (filename, line, name), (cc, nc, tottime, cumtime, _callers) in ordered:
        if len(top_functions) >= top:
            break
        top_functions.append(
            {
                "function": f"{filename}:{line}({name})",
                "bucket": _bucket_for(filename),
                "calls": nc,
                "tottime_s": round(tottime, 4),
                "cumtime_s": round(cumtime, 4),
            }
        )

    lane = result.system.fast_lane
    latency = result.latency
    completed = latency.completed
    counters = {
        "requests_completed": completed,
        "requests_dropped": latency.dropped,
        "requests_failed": latency.failed,
        "requests_lost": latency.lost,
        "requests_fast_lane": lane.requests_fast if lane is not None else 0,
        "requests_general_path": (
            lane.requests_slow
            if lane is not None
            else completed + latency.dropped + latency.failed + latency.lost
        ),
        "fast_lane_installed": lane is not None,
        "placement_events": len(result.system.placement_events),
    }
    return {
        "schema": "pipeline-profile/v1",
        "scenario": config.name,
        "duration_simulated_s": config.duration,
        "wall_s": round(wall, 3),
        "requests_per_sec_profiled": (
            round(completed / wall, 1) if wall > 0 else 0.0
        ),
        "counters": counters,
        "engine_mode": result.engine_mode(),
        "stage_seconds": {
            bucket: round(seconds, 4)
            for bucket, seconds in sorted(
                buckets.items(), key=lambda item: item[1], reverse=True
            )
        },
        "profiled_seconds_total": round(total_profiled, 3),
        "top_functions": top_functions,
        "metrics": safe_metrics(result),
    }


def stage_walltimes(
    config: ScenarioConfig, *, topology: Topology | None = None
) -> dict[str, Any]:
    """Wall-clock the scenario lifecycle stages without the profiler.

    These are the honest numbers (no tracer overhead): build the system,
    run it to the horizon, and the requests-per-wall-second that the
    perf trajectory tracks.
    """
    from repro.scenarios.runner import build_system

    t0 = time.perf_counter()
    build_system(config, topology=topology)
    build_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    result = run_scenario(config, topology=topology)
    run_s = time.perf_counter() - t1
    completed = result.latency.completed
    return {
        "build_s": round(build_s, 3),
        "run_s": round(run_s, 3),
        "drain_estimate_s": round(max(run_s - build_s, 0.0), 3),
        "requests_completed": completed,
        "requests_per_sec": round(completed / run_s, 1) if run_s > 0 else 0.0,
    }


@contextmanager
def _bracketed_run(probe: Callable[[str], None]) -> Iterator[None]:
    """While active, every ``Simulator.run`` calls ``probe("run_entry")``
    on the way in and ``probe("horizon")`` on the way out.

    ``run_scenario`` builds its own simulator, so there is no instance to
    hang a tracer on beforehand; this is the bracket ``bench/simplane.py``
    cuts its phases with.
    """
    original = Simulator.run

    def run(self: Simulator, until: float | None = None) -> float:
        probe("run_entry")
        try:
            return original(self, until)
        finally:
            probe("horizon")

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def _rss_mb() -> float:
    """This process's resident set in the census's MB; without procfs, its peak."""
    try:
        with open("/proc/self/statm") as statm:
            resident = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        resident = peak if os.uname().sysname == "Darwin" else peak * 1024  # bytes vs KB
    return round(resident / 1e6, 1)


def _heap_rollup(top: int) -> dict[str, Any]:
    """The traced heap right now, by stage bucket and by allocating file."""
    stages: dict[str, int] = {}
    files: dict[str, int] = {}
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        path = stat.traceback[0].filename.replace("\\", "/")
        if path.startswith("<frozen importlib"):
            # Code objects and module dicts of whatever was first imported
            # under the census (networkx, mostly).
            bucket = label = "imports"
        else:
            bucket = _bucket_for(path)
            _, inside, rest = path.rpartition("/repro/")
            label = rest if inside else "/".join(path.split("/")[-2:])
        stages[bucket] = stages.get(bucket, 0) + stat.size
        files[label] = files.get(label, 0) + stat.size

    def table(sizes: dict[str, int], limit: int | None = None) -> dict[str, float]:
        ordered = sorted(sizes.items(), key=lambda item: item[1], reverse=True)
        return {name: round(size / 1e6, 2) for name, size in ordered[:limit]}

    return {
        "total_mb": round(sum(stages.values()) / 1e6, 2),
        "stage_mb": table(stages),
        "file_mb": table(files, top),
    }


def memory_census(
    config: ScenarioConfig, *, topology: Topology | None = None, top: int = 25
) -> dict[str, Any]:
    """Run one scenario under ``tracemalloc``; return what the heap holds.

    Two readings of the Python heap (MB = 10⁶ bytes, live blocks only):
    ``run_entry`` — when ``Simulator.run`` is entered, i.e. what the
    build, the collectors and the first arrival windows left behind — and
    ``horizon``, when it returns.  Allocations made before the census
    started (the interpreter, the modules the CLI had already imported)
    are not in it, nor is anything a C extension allocates for itself, so
    totals sit well under the process's RSS: ``rss_mb`` gives that at the
    start and at both readings (``tracemalloc``'s own tables included);
    start the interpreter with ``-X tracemalloc`` to trace the imports too.
    """
    readings: dict[str, dict[str, Any]] = {}
    rss_mb = {"start": _rss_mb()}

    def read(moment: str) -> None:
        rss_mb[moment] = _rss_mb()  # before the snapshot's own allocations
        readings[moment] = _heap_rollup(top)

    already_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with _bracketed_run(read):
            result = run_scenario(config, topology=topology)
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return {
        "schema": "memory-census/v1",
        "scenario": config.name,
        "duration_simulated_s": config.duration,
        "engine_mode": result.engine_mode(),
        "requests_completed": result.latency.completed,
        "rss_mb": rss_mb,
        **readings,
    }
