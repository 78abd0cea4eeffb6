"""Calibrated host time: slices, calibration kernels, the estimator.

Raw wall time on a shared box cannot repeat: identical work drifts by
tens of percent within minutes and single slices are hit by multi-ms
preemptions.  The estimator here turns a run into a number that does
repeat:

1. the timed region is cut into slices of a few ms *from outside*
   (:class:`SliceRecorder`);
2. a frozen calibration kernel is timed at every slice boundary, and a
   slice is scored as ``slice_wall / mean(adjacent kernel walls)`` — a
   slowdown that hits workload and kernel alike cancels;
3. the same work is repeated R times and each slice keeps the *median*
   score over the reps — a preemption that hits one rep is rejected;
4. the per-slice medians are summed and scaled by the kernel's frozen
   nominal cost, giving "calibrated microseconds": the time the region
   would take on a machine on which the kernel takes its nominal time.

A kernel only cancels the slowdowns it shares with the workload, so its
resource shape has to match: simulator workloads are interpreter plus
memory traffic (:class:`MemoryKernel`), the live workload is interpreter
plus loopback socket round trips (:class:`EchoKernel`).

The kernels are FROZEN: their loops and nominal costs define the unit of
``cal_us_per_request``.  Changing either re-bases every committed number.
"""

from __future__ import annotations

import asyncio
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK64 = (1 << 64) - 1


class MemoryKernel:
    """CPU + memory kernel for the simulator workloads.

    Dict/list arithmetic plus LCG-indexed reads over a 16 MB ``array``
    and a 300k-entry dict: enough footprint to leave the caches, so it
    slows down with memory contention the way the simulator's heap
    walks do.  The loop allocates nothing the cyclic GC tracks.  The LCG
    state carries over between calls, so every call reads fresh lines.
    """

    #: Frozen nominal cost of one :meth:`run` in microseconds.
    NOMINAL_US = 600.0
    _ITERATIONS = 600
    _TABLE = 2_000_000
    _LOOKUP = 300_000

    def __init__(self) -> None:
        self._table = array("q", range(self._TABLE))
        self._lookup = {key: key for key in range(self._LOOKUP)}
        self._counts = [0] * 64
        self._tally = {slot: 0 for slot in range(64)}
        self._state = 88172645463325252

    def run(self) -> float:
        """One kernel pass; returns its wall time in seconds."""
        table = self._table
        lookup = self._lookup
        counts = self._counts
        tally = self._tally
        state = self._state
        table_size = self._TABLE
        lookup_size = self._LOOKUP
        acc = 0
        start = perf_counter()
        for _ in range(self._ITERATIONS):
            state = (state * _LCG_MULT + _LCG_ADD) & _MASK64
            high = state >> 20
            acc += table[high % table_size] + lookup[high % lookup_size]
            slot = high & 63
            counts[slot] += 1
            tally[slot] = tally[slot] + (acc & 7)
        wall = perf_counter() - start
        self._state = state
        return wall


class EchoKernel:
    """CPU + I/O kernel for the live workload.

    Eight round trips over a benchmark-owned ``asyncio`` loopback echo
    connection (the same selector/stream machinery ``live/httpd`` and
    ``live/pool`` sit on) plus a short interpreter loop.
    """

    #: Frozen nominal cost of one :meth:`run` in microseconds.
    NOMINAL_US = 280.0
    _ROUND_TRIPS = 8
    _CPU_ITERATIONS = 400
    _PAYLOAD = b"x" * 63 + b"\n"

    def __init__(self) -> None:
        self._server: asyncio.AbstractServer | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._handlers: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._echo, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", port)

    async def _echo(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while line := await reader.readline():
                writer.write(line)
                await writer.drain()
        finally:
            writer.close()
            self._handlers.discard(task)

    async def stop(self) -> None:
        if self._writer is not None:
            self._writer.close()
            await self._writer.wait_closed()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=5.0)

    async def run(self) -> float:
        """One kernel pass; returns its wall time in seconds."""
        reader, writer = self._reader, self._writer
        payload = self._PAYLOAD
        acc = 0
        start = perf_counter()
        for _ in range(self._ROUND_TRIPS):
            writer.write(payload)
            await writer.drain()
            acc += len(await reader.readline())
        for step in range(self._CPU_ITERATIONS):
            acc = (acc * 31 + step) & 0xFFFFFF
        return perf_counter() - start


class SliceRecorder:
    """Slice walls and the kernel walls at their boundaries, for one rep.

    A boundary is ``close(kind)``, one timed kernel pass, ``open(wall)``:
    the kernel runs between slices, outside every slice wall, and ``n``
    slices carry ``n + 1`` kernel walls.  ``kinds`` tags each slice (the
    live workload separates request batches from control ticks).
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.kernels: list[float] = []
        self.kinds: list[str] = []
        self._opened = 0.0

    def open(self, kernel_wall: float) -> None:
        """Record the boundary kernel's wall and start the next slice."""
        self.kernels.append(kernel_wall)
        self._opened = perf_counter()

    def close(self, kind: str = "") -> None:
        """End the running slice (call before timing the boundary kernel)."""
        self.slices.append(perf_counter() - self._opened)
        self.kinds.append(kind)

    @property
    def wall(self) -> float:
        """Raw wall of the sliced region, kernels excluded."""
        return sum(self.slices)

    def scores(self) -> list[float]:
        """Per-slice ``wall / mean(adjacent kernel walls)``."""
        kernels = self.kernels
        return [
            wall / ((kernels[index] + kernels[index + 1]) / 2.0)
            for index, wall in enumerate(self.slices)
        ]


@dataclass
class Rep:
    """What one rep of any workload hands back to ``run.py``."""

    setup_s: float
    drain_s: float
    finalize_s: float
    fold_ms: float
    #: Requests accounted for (the per-request denominator).
    requests: int
    #: Operations the program under test got wrong (live: non-200 replies).
    failed: int
    #: Exact statistics: identical on every rep of the same inputs.
    exact: dict[str, float]
    #: Violated output checks (empty = correct).
    problems: list[str]
    recorder: SliceRecorder | None = None
    #: Raw host-time observations for per-layer metrics (not exact).
    timings: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)


def calibrated_us(
    rep_scores: list[list[float]], nominal_us: float, select=None
) -> float:
    """The estimator: sum of per-slice medians over reps, in calibrated µs.

    ``rep_scores`` holds one :meth:`SliceRecorder.scores` list per rep;
    every rep must have cut the same slices.  ``select`` optionally keeps
    a subset of slice indices (a share of the total, e.g. control ticks).
    """
    counts = {len(scores) for scores in rep_scores}
    if len(counts) != 1:
        raise ValueError(f"reps disagree on slice count: {sorted(counts)}")
    indices = range(counts.pop()) if select is None else select
    return nominal_us * sum(
        statistics.median(scores[index] for scores in rep_scores)
        for index in indices
    )
