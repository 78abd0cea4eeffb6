"""The traced run: one rep under ``cProfile``, rolled up by layer.

Layers are the repository's module names.  Every profile entry is put in
a layer by the file it was defined in; a C builtin (no file) is charged
to the layer of each caller, so ``dict.get`` inside ``core/host.py``
counts as ``core.host`` work.  Call counts are exact and repeat between
runs; self-time shares are inflated for call-heavy code by the profiler
and are a map, not a measurement — host time is measured with tracing
off.
"""

from __future__ import annotations

import cProfile
import pstats

#: Path fragment -> layer, first match wins (paths use forward slashes).
LAYER_PATHS: tuple[tuple[str, str], ...] = (
    ("repro/sim/", "sim"),
    ("repro/workloads/", "workloads"),
    ("repro/core/fastlane", "core.fastlane"),
    ("repro/core/protocol", "core.protocol"),
    ("repro/core/redirector", "core.redirector"),
    ("repro/core/host", "core.host"),
    ("repro/core/placement", "core.placement"),
    ("repro/core/create_obj", "core.placement"),
    ("repro/core/offload", "core.placement"),
    ("repro/core/load_board", "core.placement"),
    ("repro/load/", "core.placement"),
    ("repro/network/", "network"),
    ("repro/metrics/", "metrics"),
    ("repro/routing/", "routing"),
    ("repro/failures/", "failures"),
    ("repro/consistency/", "consistency"),
    ("repro/live/", "live"),
)

#: Every layer reported, in output order.  ``other`` is the rest of the
#: process: stdlib, asyncio, the remaining ``repro`` modules, this bench.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PATHS)) + (
    "other",
)


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in LAYER_PATHS:
        if fragment in path:
            return layer
    return "other"


def rollup(stats: dict) -> tuple[dict[str, int], dict[str, float]]:
    """``pstats`` entries -> per-layer ``(calls, self_seconds)``."""
    calls = dict.fromkeys(LAYERS, 0)
    seconds = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename == "~" and callers:
            # A builtin: charge each caller's share to the caller's layer.
            for (caller_file, _l, _n), (caller_calls, _c, caller_tt, _t) in callers.items():
                layer = layer_of(caller_file)
                calls[layer] += caller_calls
                seconds[layer] += caller_tt
        else:
            layer = layer_of(filename)
            calls[layer] += ncalls
            seconds[layer] += tottime
    return calls, seconds


def traced(run):
    """Run ``run()`` under the profiler; return ``(result, calls, seconds)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    calls, seconds = rollup(pstats.Stats(profiler).stats)
    return result, calls, seconds
