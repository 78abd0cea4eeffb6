"""Event primitives for the discrete-event simulator.

Events are ordered by ``(time, sequence)``: the sequence number is a
monotonically increasing tie-breaker so that events scheduled for the same
instant fire in scheduling order.  This makes simulations fully
deterministic, which the test-suite and the reproducibility guarantees of
the gates rely on.

Queue structure
---------------
:class:`EventQueue` is a two-tier *bucketed calendar queue*:

* a **near heap** holding every pending entry in the current time bucket
  (heap-ordered, the fallback ordering within a bucket), and
* **far buckets** — plain unsorted lists keyed by ``int(time / width)`` —
  for everything later.

Pushing an imminent event costs one ``heappush`` into the (small) near
heap; pushing a far event (periodic measurement/placement ticks scheduled
tens of seconds out, pre-drawn arrival batches) is a dict lookup plus a
list append.  When the current bucket drains, the earliest far bucket is
*poured*: sorted once (C timsort) into a cursor-indexed run, after which
popping an event from it is a list index plus a cursor increment — no
per-pop heap reorganisation at all.  The near heap only ever holds
entries pushed into the **current** bucket after its pour (a callback
scheduling within the same bucket width), so it stays tiny; each pop
takes whichever head — sorted run or near heap — compares smaller.
Because ``int(t / width)`` is monotone in ``t``, every entry in bucket
``k`` precedes every entry in bucket ``k+1``, so the pop order is
*exactly* the global ``(time, seq)`` order a single binary heap would
produce — the bucket width is purely a performance knob and can never
change simulation results.

Entries are plain tuples ``(time, seq, event_or_None, callback, args)``
rather than :class:`Event` instances: heap comparisons stay in C (tuples
never compare past the unique ``seq``), which is what makes pops cheap
when hundreds of thousands of events are pending.  :class:`Event` remains
as the *cancellation handle* returned by :meth:`EventQueue.push`; the
handle-free :meth:`EventQueue.push_fast` / :meth:`EventQueue.push_batch`
paths allocate no handle at all and are used for the per-request hot path
(request arrivals, service completions) where cancellation never happens.

Cancellation has exactly one canonical path: :meth:`Event.cancel`.  It is
idempotent, keeps the owning queue's live-event count in sync, and is a
no-op once the event has fired.  :meth:`repro.sim.engine.Simulator.cancel`
is a thin delegating convenience, so calling either is equivalent.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.types import Time

#: Queue entry layout indices (entries are plain tuples for C-speed
#: comparisons): ``(time, seq, event_or_None, callback, args)``.
ENTRY_TIME = 0
ENTRY_SEQ = 1
ENTRY_HANDLE = 2
ENTRY_CALLBACK = 3
ENTRY_ARGS = 4

#: Default bucket width, seconds.  Small enough that a near bucket holds
#: at most a few hundred entries under paper-scale request rates, large
#: enough that far pushes amortise; callers with known event rates can
#: tune it (see :func:`repro.scenarios.runner.auto_bucket_width`).
DEFAULT_BUCKET_WIDTH = 0.25


class Event:
    """A cancellation handle for one scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`
    and should not be constructed directly.  An event can be cancelled up
    until it fires; cancellation is O(1) (the queue entry is tombstoned).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: Time,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Back-reference to the owning queue while the event is pending;
        #: cleared when the event is popped so that a late ``cancel()``
        #: cannot corrupt the live count.
        self._queue: "EventQueue | None" = None

    def cancel(self) -> None:
        """Prevent this event from firing.

        Idempotent, and a no-op after the event has fired.  This is the
        single canonical cancellation path: the owning queue's live count
        is decremented exactly once, on the first cancellation of a
        still-pending event.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name} [{state}]>"


class EventQueue:
    """A bucketed priority queue of scheduled callbacks.

    ``len`` counts *live* (pending, non-cancelled) events;
    :meth:`Event.cancel` keeps it in sync automatically.  See the module
    docstring for the two-tier structure and the determinism argument.
    """

    __slots__ = (
        "_near",
        "_sorted",
        "_sorted_pos",
        "_far",
        "_far_keys",
        "_cur_key",
        "_width",
        "_seq",
        "_live",
    )

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise SimulationError(
                f"bucket width must be positive, got {bucket_width}"
            )
        self._width = bucket_width
        #: Heap of entries pushed for the current (or an already-poured)
        #: bucket — i.e. with key <= _cur_key.  Routing is by key, so
        #: ordering stays exact regardless of pour timing.
        self._near: list[tuple] = []
        #: The poured current bucket, sorted ascending; consumed by
        #: cursor (``_sorted_pos``) — pops cost an index, not a heap op.
        self._sorted: list[tuple] = []
        self._sorted_pos = 0
        #: key -> unsorted list of entries with ``int(time/width) == key``.
        self._far: dict[int, list[tuple]] = {}
        #: Heap of far bucket keys (each key appears exactly once).
        self._far_keys: list[int] = []
        #: Entries with bucket key <= _cur_key go straight to the near heap.
        self._cur_key = 0
        self._seq = 0
        self._live = 0

    @property
    def bucket_width(self) -> float:
        return self._width

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Push paths
    # ------------------------------------------------------------------

    def push(
        self, time: Time, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> Event:
        """Enqueue a callback at simulated ``time`` and return its handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        event._queue = self
        entry = (time, seq, event, callback, args)
        key = int(time / self._width)
        if key <= self._cur_key:
            heappush(self._near, entry)
        else:
            bucket = self._far.get(key)
            if bucket is None:
                self._far[key] = [entry]
                heappush(self._far_keys, key)
            else:
                bucket.append(entry)
        self._live += 1
        return event

    def push_fast(
        self, time: Time, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        """Enqueue a callback with no cancellation handle.

        The hot-path variant for events that are never cancelled (request
        arrivals, service completions): no :class:`Event` is allocated.
        """
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, None, callback, args)
        key = int(time / self._width)
        if key <= self._cur_key:
            heappush(self._near, entry)
        else:
            bucket = self._far.get(key)
            if bucket is None:
                self._far[key] = [entry]
                heappush(self._far_keys, key)
            else:
                bucket.append(entry)
        self._live += 1

    def push_batch(
        self,
        times: "list[Time]",
        callback: Callable[..., Any],
        args_list: "list[tuple[Any, ...]]",
    ) -> None:
        """Enqueue one handle-free event per ``(time, args)`` pair.

        The arrival path: a request generator pre-draws a window of
        arrivals as vectors and hands them over in one call, amortising
        the per-event scheduling overhead.
        Times need not be sorted; ordering is by ``(time, seq)`` with
        sequence numbers assigned in list order, exactly as if each pair
        had been pushed individually.
        """
        if len(times) != len(args_list):
            raise SimulationError(
                f"push_batch got {len(times)} times but {len(args_list)} args"
            )
        seq = self._seq
        width = self._width
        cur_key = self._cur_key
        near = self._near
        far = self._far
        far_keys = self._far_keys
        for time, args in zip(times, args_list):
            entry = (time, seq, None, callback, args)
            seq += 1
            key = int(time / width)
            if key <= cur_key:
                heappush(near, entry)
            else:
                bucket = far.get(key)
                if bucket is None:
                    far[key] = [entry]
                    heappush(far_keys, key)
                else:
                    bucket.append(entry)
        self._live += seq - self._seq
        self._seq = seq

    # ------------------------------------------------------------------
    # Pop paths
    # ------------------------------------------------------------------

    def _advance(self) -> bool:
        """Pour the earliest far bucket into the sorted-run position.

        Returns False when no far bucket exists.  Called only with the
        current bucket fully consumed (sorted run exhausted, near heap
        empty).  The poured bucket is sorted once — the in-bucket
        ordering fallback that preserves exact ``(time, seq)`` order —
        and then consumed by cursor.
        """
        far_keys = self._far_keys
        if not far_keys:
            return False
        key = heappop(far_keys)
        bucket = self._far.pop(key)
        bucket.sort()
        self._sorted = bucket
        self._sorted_pos = 0
        self._cur_key = key
        return True

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`SimulationError` when the queue is empty.  Returns
        the original handle for handle-based pushes; handle-free entries
        are materialised into an equivalent (already-detached)
        :class:`Event`.
        """
        entry = self.pop_until(None)
        if entry is None:
            raise SimulationError("pop from an empty event queue")
        event = entry[2]
        if event is None:
            event = Event(entry[0], entry[1], entry[3], entry[4])
        return event

    def _heads(self) -> tuple | None:
        """Skim tombstones and return the earliest live entry without
        removing it, pouring buckets as needed; ``None`` when empty.

        Commits tombstone skips (cursor advance / near pops) so repeated
        peeks don't rescan them — cancel already fixed ``_live``.
        """
        while True:
            sorted_run = self._sorted
            pos = self._sorted_pos
            end = len(sorted_run)
            while pos < end:
                head = sorted_run[pos]
                handle = head[2]
                if handle is not None and handle.cancelled:
                    pos += 1
                    continue
                break
            else:
                head = None
            self._sorted_pos = pos
            near = self._near
            while near:
                near_head = near[0]
                handle = near_head[2]
                if handle is not None and handle.cancelled:
                    heappop(near)
                    continue
                if head is None or near_head < head:
                    return near_head
                break
            if head is not None:
                return head
            if not self._advance():
                return None

    def peek_time(self) -> Time | None:
        """Return the firing time of the earliest live event, if any."""
        head = self._heads()
        return head[0] if head is not None else None

    def pop_until(self, horizon: Time | None) -> tuple | None:
        """Pop the earliest live entry at or before ``horizon``.

        The simulator's hot path: one call replaces a peek/pop pair.
        Returns the raw queue entry tuple (see the ``ENTRY_*`` indices) —
        ``None`` when no live events remain (drained, or only tombstones
        left) or the earliest live event lies beyond the horizon; in
        either case nothing is removed from the live set.
        """
        # Fast paths: only one of the two heads exists (the common cases
        # — mid-drain the near heap is empty; in callback-scheduling
        # regimes the sorted run is exhausted).
        sorted_run = self._sorted
        pos = self._sorted_pos
        near = self._near
        if pos < len(sorted_run):
            if not near:
                head = sorted_run[pos]
                handle = head[2]
                if handle is None or not handle.cancelled:
                    if horizon is not None and head[0] > horizon:
                        return None
                    self._sorted_pos = pos + 1
                    if handle is not None:
                        handle._queue = None
                    self._live -= 1
                    return head
        elif near:
            head = near[0]
            handle = head[2]
            if handle is None or not handle.cancelled:
                if horizon is not None and head[0] > horizon:
                    return None
                heappop(near)
                if handle is not None:
                    handle._queue = None
                self._live -= 1
                return head
        head = self._heads()
        if head is None:
            return None
        if horizon is not None and head[0] > horizon:
            return None
        # Remove the head _heads() committed to: it is either the
        # current sorted-run cursor entry or the near-heap root.
        if (
            self._sorted_pos < len(self._sorted)
            and self._sorted[self._sorted_pos] is head
        ):
            self._sorted_pos += 1
        else:
            heappop(self._near)
        handle = head[2]
        if handle is not None:
            handle._queue = None
        self._live -= 1
        return head

    def _note_cancelled(self) -> None:
        # Called (only) by Event.cancel() so ``len`` stays an accurate
        # count of live events.
        self._live -= 1
