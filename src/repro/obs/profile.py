"""Pipeline profiling: where a scenario's calls, time and heap go.

``python -m repro profile`` reads one scenario four ways:

* **Stage wall clock** (:func:`stage_walltimes`) — ``perf_counter`` at
  the start, at ``Simulator.run`` entry and at the horizon, without the
  profiler: the honest numbers.
* **Layer attribution** (:func:`profile_scenario`) — a ``cProfile`` run
  rolled up by the benchmark's layers (:mod:`repro.obs.layers`): calls
  per request, exact, and self-time shares, which the profiler inflates
  for call-heavy code — the map, not the measurement.
* **Event census** (:func:`event_census`) — events per request by
  callback, and each callback's share of the drain.
* **Heap census** (``--memory``, :func:`memory_census`) — the traced
  heap at run entry and at the horizon, by layer and by file.

Every run-entry or horizon reading is a simulator tracer passed as
``run_scenario(..., sim_tracers=...)``, which the runner adds after the
engine mode is decided: no reading stands the fast lane down.
"""

from __future__ import annotations

import cProfile
import gc
import os
import time
import tracemalloc
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.layers import LAYERS, layer_of, rollup
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.process import PeriodicProcess
from repro.topology.graph import Topology

#: The event census's label for a host's placement round.
PLACEMENT_TICK = "PeriodicProcess(HostingSystem._make_placement_tick.<locals>.tick)"


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
    """Run one scenario under the profiler; return a JSON-safe breakdown:
    counters, calls per request (a request being any outcome) and self
    share for every layer, the top functions by cumulative time, and the
    run's scalar metrics (so a profile artifact documents *what* ran)."""
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    result = run_scenario(config, topology=topology)
    profiler.disable()
    wall = time.perf_counter() - wall_start

    entries = profiler.getstats()
    calls, seconds = rollup(entries)
    total_profiled = sum(seconds.values())
    ordered = sorted(entries, key=lambda entry: entry.totaltime, reverse=True)

    lane = result.system.fast_lane
    latency = result.latency
    completed = latency.completed
    requests = completed + latency.dropped + latency.failed + latency.lost
    counters = {
        "requests_completed": completed,
        "requests_dropped": latency.dropped,
        "requests_failed": latency.failed,
        "requests_lost": latency.lost,
        "requests_fast_lane": lane.requests_fast if lane is not None else 0,
        "requests_general_path": lane.requests_slow if lane is not None else requests,
        "fast_lane_installed": lane is not None,
        "placement_events": len(result.system.placement_events),
    }
    return {
        "schema": "pipeline-profile/v2",
        "scenario": config.name,
        "duration_simulated_s": config.duration,
        "wall_s": round(wall, 3),
        "requests_per_sec_profiled": (
            round(completed / wall, 1) if wall > 0 else 0.0
        ),
        "counters": counters,
        "engine_mode": result.engine_mode(),
        "profiled_calls_total": sum(calls.values()),
        "calls_per_request": {
            layer: round(calls[layer] / (requests or 1), 4) for layer in LAYERS
        },
        "self_share": {
            layer: round(seconds[layer] / (total_profiled or 1.0), 4)
            for layer in LAYERS
        },
        "profiled_seconds_total": round(total_profiled, 3),
        "top_functions": [_function_row(entry) for entry in ordered[:top]],
        "metrics": safe_metrics(result),
    }


def _function_row(entry: Any) -> dict[str, Any]:
    """One ``top_functions`` row from a raw profiler entry."""
    code = entry.code
    if isinstance(code, str):  # a builtin, named by its description
        function, layer = code, "other"
    else:
        function = f"{code.co_filename}:{code.co_firstlineno}({code.co_name})"
        layer = layer_of(code.co_filename)
    return {
        "function": function,
        "layer": layer,
        "calls": entry.callcount,
        "tottime_s": round(entry.inlinetime, 4),
        "cumtime_s": round(entry.totaltime, 4),
    }


def stage_walltimes(
    config: ScenarioConfig, *, topology: Topology | None = None
) -> dict[str, Any]:
    """Wall-clock the scenario's stages without the profiler: everything
    before ``Simulator.run`` entry (``build_s``), the drain, and requests
    per wall second.  ``cyclic_objects`` is what a full collection finds
    at the horizon (not counted in ``run_s``): the runner pauses the
    collector over the drain on the premise that it is 0."""
    marks: dict[str, float] = {}

    def enter(sim: Simulator, until: float | None) -> None:
        marks["run_entry"] = time.perf_counter()

    def horizon(sim: Simulator, fired: int) -> None:
        marks["horizon"] = time.perf_counter()
        marks["cyclic_objects"] = gc.collect()
        marks["collect_s"] = time.perf_counter() - marks["horizon"]

    gc.collect()  # the previous run's garbage is not this one's
    start = time.perf_counter()
    # Run hooks only: the drain stays on the engine's untraced path.
    bracket = SimpleNamespace(on_run_start=enter, on_run_end=horizon)
    result = run_scenario(config, topology=topology, sim_tracers=(bracket,))
    run_s = time.perf_counter() - start - marks["collect_s"]
    completed = result.latency.completed
    return {
        "build_s": round(marks["run_entry"] - start, 3),
        "drain_s": round(marks["horizon"] - marks["run_entry"], 3),
        "run_s": round(run_s, 3),
        "cyclic_objects": int(marks["cyclic_objects"]),
        "requests_completed": completed,
        "requests_per_sec": round(completed / run_s, 1) if run_s > 0 else 0.0,
    }


def _callback_label(callback: Callable[..., Any]) -> str:
    """A callback's ``__qualname__``; a periodic process's tick is named
    by the callback it runs, a ``partial`` by its function."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, PeriodicProcess):
        return f"PeriodicProcess({_callback_label(owner._callback)})"
    if isinstance(callback, partial):
        return _callback_label(callback.func)
    return getattr(callback, "__qualname__", type(callback).__qualname__)


class _EventCensus:
    """A simulator tracer counting fired events by callback.

    The wall between one event's hook and the next is charged to the
    first: its callback plus the engine's step to the next event.
    """

    def __init__(self) -> None:
        self.events: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self._last: str | None = None
        self._since = 0.0

    def on_event(self, event: Event) -> None:
        now = time.perf_counter()
        label = _callback_label(event.callback)
        if self._last is not None:
            self.seconds[self._last] += now - self._since
        self.events[label] = self.events.get(label, 0) + 1
        self.seconds.setdefault(label, 0.0)
        self._last = label
        self._since = time.perf_counter()

    def on_run_end(self, sim: Simulator, fired: int) -> None:
        if self._last is not None:
            self.seconds[self._last] += time.perf_counter() - self._since
            self._last = None


def event_census(
    config: ScenarioConfig, *, topology: Topology | None = None
) -> dict[str, Any]:
    """Run one scenario counting its events by callback (on the engine
    mode an unprofiled run takes).  ``time_share`` is each callback's
    share of the traced drain's wall (see :class:`_EventCensus`), and
    ``placement_s`` the seconds of the :data:`PLACEMENT_TICK` row."""
    census = _EventCensus()
    result = run_scenario(config, topology=topology, sim_tracers=(census,))
    completed = result.latency.completed
    total_events = sum(census.events.values())
    total_seconds = sum(census.seconds.values()) or 1.0
    per_request = completed or 1
    callbacks = {
        label: {
            "events": count,
            "per_request": round(count / per_request, 4),
            "time_share": round(census.seconds[label] / total_seconds, 4),
        }
        for label, count in sorted(
            census.events.items(), key=lambda item: item[1], reverse=True
        )
    }
    return {
        "engine_mode": result.engine_mode(),
        "requests_completed": completed,
        "events": total_events,
        "events_per_request": round(total_events / per_request, 4),
        "placement_s": round(census.seconds.get(PLACEMENT_TICK, 0.0), 3),
        "callbacks": callbacks,
    }


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
    """The traced heap right now, by layer and by allocating file."""
    layers = dict.fromkeys(LAYERS, 0)
    files: dict[str, int] = {}
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        path = stat.traceback[0].filename.replace("\\", "/")
        if path.startswith("<frozen importlib"):
            # Code objects and module dicts of whatever was first imported
            # under the census (the package's own modules: it needs no
            # third-party one).
            label = "imports"
        else:
            _, inside, rest = path.rpartition("/repro/")
            label = rest if inside else "/".join(path.split("/")[-2:])
        layers[layer_of(path)] += stat.size
        files[label] = files.get(label, 0) + stat.size

    def table(sizes: dict[str, int], limit: int | None = None) -> dict[str, float]:
        ordered = sorted(sizes.items(), key=lambda item: item[1], reverse=True)
        return {name: round(size / 1e6, 2) for name, size in ordered[:limit]}

    return {
        "total_mb": round(sum(layers.values()) / 1e6, 2),
        "stage_mb": table(layers),
        "file_mb": table(files, top),
    }


def memory_census(
    config: ScenarioConfig, *, topology: Topology | None = None, top: int = 25
) -> dict[str, Any]:
    """Run one scenario under ``tracemalloc``; return what the heap holds.

    Two readings of the Python heap (MB = 10⁶ bytes, live blocks only), by
    layer (``stage_mb``) and by file: ``run_entry`` — what the build, the
    collectors and the first arrival windows left behind — and
    ``horizon``, after a full collection (``cyclic_objects``).  What was
    allocated before the census (start the interpreter with ``-X
    tracemalloc`` for the imports) or by a C extension is not traced, so
    ``rss_mb`` gives the process's RSS at the start and at both readings.
    """
    readings: dict[str, dict[str, Any]] = {}
    rss_mb = {"start": _rss_mb()}
    cyclic_objects: list[int] = []

    def read(moment: str) -> None:
        rss_mb[moment] = _rss_mb()  # before the snapshot's own allocations
        readings[moment] = _heap_rollup(top)

    def horizon(sim: Simulator, fired: int) -> None:
        cyclic_objects.append(gc.collect())
        read("horizon")

    bracket = SimpleNamespace(
        on_run_start=lambda sim, until: read("run_entry"), on_run_end=horizon
    )
    already_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        result = run_scenario(config, topology=topology, sim_tracers=(bracket,))
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return {
        "schema": "memory-census/v1",
        "scenario": config.name,
        "duration_simulated_s": config.duration,
        "engine_mode": result.engine_mode(),
        "requests_completed": result.latency.completed,
        "cyclic_objects": cyclic_objects[0],
        "rss_mb": rss_mb,
        **readings,
    }
