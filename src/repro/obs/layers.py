"""The profiler's vocabulary: the repository's layers, and an exact roll-up.

A profiler entry belongs to the layer of the file its code was defined
in; a C builtin is charged to each caller's layer (``dict.get`` inside
``core/host.py`` is ``core.host`` work).  ``bench/layers.py`` reports its
``calls_per_request.*`` / ``self_share.*`` rows under the same names.
:func:`rollup` sums the raw entries (``profiler.getstats()``), not the
label-keyed ``pstats`` table, which keeps one of the functions sharing a
``(file, line, name)`` label — every dataclass ``__init__`` — and so
loses calls (DESIGN §4 "Profiler vocabulary").
"""

from __future__ import annotations

from typing import Any, Iterable

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
#: process: stdlib, asyncio, the remaining ``repro`` modules.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PATHS)) + (
    "other",
)


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in LAYER_PATHS:
        if fragment in path:
            return layer
    return "other"


def rollup(entries: Iterable[Any]) -> tuple[dict[str, int], dict[str, float]]:
    """``profiler.getstats()`` -> per-layer ``(calls, self_seconds)``.

    A builtin's entry (its ``code`` is a description string) is put in
    ``other`` whole; each caller's sub-call entry for it then moves that
    caller's share to the caller's layer.  The calls sum to the entries'
    ``callcount`` total exactly.
    """
    calls = dict.fromkeys(LAYERS, 0)
    seconds = dict.fromkeys(LAYERS, 0.0)
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            calls["other"] += entry.callcount
            seconds["other"] += entry.inlinetime
            continue
        layer = layer_of(code.co_filename)
        calls[layer] += entry.callcount
        seconds[layer] += entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                calls[layer] += sub.callcount
                seconds[layer] += sub.inlinetime
                calls["other"] -= sub.callcount
                seconds["other"] -= sub.inlinetime
    seconds["other"] = max(seconds["other"], 0.0)  # float residue of the moves
    return calls, seconds
