"""The discrete-event simulation core.

A :class:`Simulator` owns a virtual clock and an event queue.  Components
register callbacks at absolute or relative simulated times; :meth:`run`
drains the queue in time order until a horizon is reached or the queue
empties.  The design is deliberately callback-based (no coroutines): the
hosting-platform simulation schedules a handful of events per client
request and millions of requests per run, so a low-overhead core matters.

Tracing
-------
:meth:`Simulator.add_tracer` is the one observation mechanism, free when
unused: a :class:`SimTracer` implements any of its hooks (:mod:`repro.obs`
stamps decision traces and brackets profiles with the run hooks), and one
without ``on_event`` leaves the drain on the untraced path.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.sim.events import DEFAULT_BUCKET_WIDTH, Event, EventQueue
from repro.types import Time


@runtime_checkable
class SimTracer(Protocol):
    """Pluggable simulator tracer.

    All methods are optional — implement any subset; the simulator probes
    with ``getattr`` when a run starts, so absent hooks cost nothing.

    * ``on_event(event)`` — called just before each event fires.
    * ``on_run_start(sim, until)`` — called when :meth:`Simulator.run`
      begins draining the queue.
    * ``on_run_end(sim, fired)`` — called when the run ends, with the
      number of events fired while at least one tracer was attached.
    """

    def on_event(self, event: Event) -> None: ...  # pragma: no cover

    def on_run_start(
        self, sim: "Simulator", until: Time | None
    ) -> None: ...  # pragma: no cover

    def on_run_end(self, sim: "Simulator", fired: int) -> None: ...  # pragma: no cover


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, fired.append, 2.0)
    >>> _ = sim.schedule_at(1.0, fired.append, 1.0)
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    __slots__ = ("_queue", "_now", "_running", "_stopped", "_tracers")

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        self._queue = EventQueue(bucket_width)
        self._now: Time = 0.0
        self._running = False
        self._stopped = False
        self._tracers: list[Any] = []

    @property
    def now(self) -> Time:
        """The current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """The number of live (non-cancelled) scheduled events."""
        return len(self._queue)

    def add_tracer(self, tracer: Any) -> None:
        """Register a :class:`SimTracer`; tracers see events in order."""
        if tracer in self._tracers:
            raise SimulationError("tracer already registered")
        self._tracers.append(tracer)

    def remove_tracer(self, tracer: Any) -> None:
        """Unregister a tracer previously passed to :meth:`add_tracer`."""
        try:
            self._tracers.remove(tracer)
        except ValueError:
            raise SimulationError("tracer is not registered") from None

    def schedule_at(
        self, time: Time, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past raises :class:`SimulationError`; scheduling
        exactly at :attr:`now` is allowed and fires after events already
        queued for the current instant.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        return self._queue.push(time, callback, args)

    def schedule_after(
        self, delay: Time, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def post_at(self, time: Time, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``time`` with no cancel handle.

        The hot-path sibling of :meth:`schedule_at` for events that are
        never cancelled (per-request pipeline hops): no :class:`Event`
        is allocated.  Ordering is identical — the same ``(time, seq)``
        sequence numbering is shared with the handle-based paths.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        self._queue.push_fast(time, callback, args)

    def post_after(
        self, delay: Time, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` with no cancel handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._queue.push_fast(self._now + delay, callback, args)

    def post_batch(
        self,
        times: list[Time],
        callback: Callable[..., Any],
        args_list: list[tuple[Any, ...]],
    ) -> None:
        """Schedule a pre-drawn vector of handle-free events in one call.

        Used by the request generator: one call schedules a whole
        pre-drawn window of request arrivals.  Each ``(time, args)``
        pair gets a sequence number in list order, exactly as if posted
        individually.
        """
        if times and min(times) < self._now:
            raise SimulationError(
                f"cannot schedule at t={min(times)} before current time t={self._now}"
            )
        self._queue.push_batch(times, callback, args_list)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Delegates to :meth:`Event.cancel`, the single canonical
        cancellation path: idempotent, keeps :attr:`pending` in sync, and
        is a no-op once the event has fired.  ``sim.cancel(event)`` and
        ``event.cancel()`` are therefore interchangeable.
        """
        event.cancel()

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Time | None = None) -> Time:
        """Drain the event queue in time order.

        Parameters
        ----------
        until:
            Optional inclusive horizon.  Events scheduled at exactly
            ``until`` still fire; later events remain queued and the clock
            is advanced to ``until``.  The clock also advances to
            ``until`` when the queue runs out of live events before the
            horizon (whether it drained completely or only tombstoned
            entries remained); after :meth:`stop` the clock stays at the
            last fired event.

        Returns the simulated time at which the run ended.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        queue = self._queue
        # Per-event hooks for this run; None keeps the drain untraced.
        hooks = [hook for hook in (getattr(t, "on_event", None) for t in self._tracers)
                 if hook is not None] or None
        fired = 0
        try:
            # Inside the ``try``: a start hook that raises still ends the run.
            for tracer in self._tracers:
                on_run_start = getattr(tracer, "on_run_start", None)
                if on_run_start is not None:
                    on_run_start(self, until)
            if hooks is None:
                # Untraced fast path: drain the queue inline.  Entries
                # are raw ``(time, seq, handle, callback, args)`` tuples
                # — no per-event method calls, hook probes, or Event
                # materialisation.  Three bulk regimes, by which of the
                # queue's two heads exist:
                #
                # * sorted-run drain (near heap empty) — the dominant
                #   case mid-scenario: pops are a cursor increment;
                # * near-heap drain (sorted run exhausted) — callback-
                #   scheduling regimes where events land in the current
                #   bucket;
                # * both heads — a callback pushed into the bucket being
                #   drained (every request hop shorter than the bucket
                #   width does): the smaller head is taken inline.
                #
                # When a regime ends — the other head appeared or went
                # away, or the run is past the horizon, tombstoned, or
                # exhausted — one general ``pop_until`` step handles
                # bucket pours and the horizon.  Callbacks can push (the
                # near list object is never replaced; ``_sorted`` is only
                # replaced by pours, which never run from callbacks) and
                # cancel (observed at head-read time); ``_sorted_pos`` is
                # committed before every callback so cancellation sees a
                # consistent queue.
                pop_until = queue.pop_until
                near = queue._near
                while True:
                    sorted_run = queue._sorted
                    end = len(sorted_run)
                    pos = queue._sorted_pos
                    if not near:
                        while pos < end:
                            head = sorted_run[pos]
                            handle = head[2]
                            if handle is not None and handle.cancelled:
                                pos += 1
                                continue
                            if until is not None and head[0] > until:
                                break
                            pos += 1
                            queue._sorted_pos = pos
                            if handle is not None:
                                handle._queue = None
                            queue._live -= 1
                            self._now = head[0]
                            head[3](*head[4])
                            if self._stopped or near:
                                break
                        queue._sorted_pos = pos
                    elif pos >= end:
                        while near:
                            head = near[0]
                            handle = head[2]
                            if handle is not None and handle.cancelled:
                                heappop(near)
                                continue
                            if until is not None and head[0] > until:
                                break
                            heappop(near)
                            if handle is not None:
                                handle._queue = None
                            queue._live -= 1
                            self._now = head[0]
                            head[3](*head[4])
                            if self._stopped:
                                break
                    else:
                        # Both heads live (a callback pushed into the
                        # bucket being drained): take the smaller by the
                        # same ``(time, seq)`` tuple comparison
                        # ``EventQueue._heads`` uses.  A tombstone is
                        # skipped and the heads compared again.
                        while pos < end and near:
                            head = sorted_run[pos]
                            from_near = near[0] < head
                            if from_near:
                                head = near[0]
                            handle = head[2]
                            if handle is not None and handle.cancelled:
                                if from_near:
                                    heappop(near)
                                else:
                                    pos += 1
                                continue
                            if until is not None and head[0] > until:
                                break
                            if from_near:
                                heappop(near)
                            else:
                                pos += 1
                            queue._sorted_pos = pos
                            if handle is not None:
                                handle._queue = None
                            queue._live -= 1
                            self._now = head[0]
                            head[3](*head[4])
                            if self._stopped:
                                break
                        queue._sorted_pos = pos
                    if self._stopped:
                        break
                    entry = pop_until(until)
                    if entry is None:
                        break
                    self._now = entry[0]
                    entry[3](*entry[4])
                    if self._stopped:
                        break
            else:
                pop_until = queue.pop_until
                while True:
                    entry = pop_until(until)
                    if entry is None:
                        # No live event at or before the horizon: the
                        # queue drained, only tombstoned entries remain,
                        # or the earliest live event lies beyond `until`.
                        break
                    self._now = entry[0]
                    fired += 1
                    event = entry[2]
                    if event is None:
                        # Handle-free entry: materialise an equivalent
                        # Event for the tracer hooks.
                        event = Event(entry[0], entry[1], entry[3], entry[4])
                    for hook in hooks:
                        hook(event)
                    entry[3](*entry[4])
                    if self._stopped:
                        break
            # Unless stop() ended the run early, the full span up to the
            # horizon was simulated — on *every* other exit (horizon
            # reached, queue drained, or only tombstoned entries left)
            # the clock advances to ``until``.
            if until is not None and not self._stopped and until > self._now:
                self._now = until
        finally:
            self._running = False
            for tracer in self._tracers:
                on_run_end = getattr(tracer, "on_run_end", None)
                if on_run_end is not None:
                    on_run_end(self, fired)
        return self._now
