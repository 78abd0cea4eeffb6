"""Unit tests for the bucketed event queue."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import ENTRY_SEQ, ENTRY_TIME, EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, (3,))
    queue.push(1.0, fired.append, (1,))
    queue.push(2.0, fired.append, (2,))
    times = [queue.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_fires_in_scheduling_order():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None, ())
    second = queue.push(1.0, lambda: None, ())
    assert queue.pop() is first
    assert queue.pop() is second


def test_len_counts_live_events():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    assert len(queue) == 2
    event.cancel()
    assert len(queue) == 1


def test_cancel_is_idempotent_on_live_count():
    """Double-cancelling must decrement the live count exactly once."""
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    event.cancel()
    event.cancel()
    event.cancel()
    assert len(queue) == 1


def test_cancel_after_pop_is_noop():
    """Cancelling an event that already fired must not corrupt the count."""
    queue = EventQueue()
    first = queue.push(1.0, lambda: None, ())
    queue.push(2.0, lambda: None, ())
    assert queue.pop() is first
    first.cancel()
    assert len(queue) == 1
    assert queue.pop().time == 2.0


def test_pop_skips_cancelled():
    queue = EventQueue()
    doomed = queue.push(1.0, lambda: None, ())
    survivor = queue.push(2.0, lambda: None, ())
    doomed.cancel()
    assert queue.pop() is survivor


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    doomed = queue.push(1.0, lambda: None, ())
    queue.push(5.0, lambda: None, ())
    doomed.cancel()
    assert queue.peek_time() == 5.0


def test_peek_time_none_when_all_cancelled():
    queue = EventQueue()
    for t in (1.0, 2.0):
        queue.push(t, lambda: None, ()).cancel()
    assert queue.peek_time() is None
    assert len(queue) == 0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    queue.push(1.0, lambda: None, ())
    assert queue


# ----------------------------------------------------------------------
# Bucketed-queue edge cases
# ----------------------------------------------------------------------


def test_bucket_width_must_be_positive():
    with pytest.raises(SimulationError):
        EventQueue(bucket_width=0.0)
    with pytest.raises(SimulationError):
        EventQueue(bucket_width=-1.0)


def test_cancel_then_reschedule_at_same_instant():
    """Cancelling and rescheduling at the same time keeps (time, seq)
    order: the replacement gets a later sequence number, so it fires
    after other events already queued for that instant."""
    queue = EventQueue()
    fired = []
    queue.push(1.0, fired.append, ("survivor",))
    doomed = queue.push(1.0, fired.append, ("doomed",))
    doomed.cancel()
    replacement = queue.push(1.0, fired.append, ("replacement",))
    assert len(queue) == 2
    first = queue.pop()
    second = queue.pop()
    assert first.args == ("survivor",)
    assert second is replacement
    assert len(queue) == 0


def test_peek_and_pop_until_over_all_tombstone_buckets():
    """peek_time/pop_until must skim entire far buckets of tombstones
    (cancelled before their bucket was ever poured) to reach the first
    live event — or report emptiness without disturbing the count."""
    width = 1.0
    queue = EventQueue(bucket_width=width)
    # Two full far buckets of events, all cancelled before any pop.
    for t in (3.1, 3.5, 3.9, 4.2, 4.8):
        queue.push(t, lambda: None, ()).cancel()
    assert len(queue) == 0
    assert queue.peek_time() is None
    assert queue.pop_until(None) is None
    # A live event behind the tombstone buckets is still found.
    live = queue.push(7.5, lambda: None, ())
    for t in (5.1, 5.2, 6.3):
        queue.push(t, lambda: None, ()).cancel()
    assert queue.peek_time() == 7.5
    # Horizon short of the live event: nothing popped, count intact.
    assert queue.pop_until(3.0) is None
    assert len(queue) == 1
    entry = queue.pop_until(10.0)
    assert entry[ENTRY_TIME] == 7.5
    assert entry[ENTRY_SEQ] == live.seq
    assert len(queue) == 0


def test_live_count_through_mixed_cancel_pop_interleavings():
    queue = EventQueue(bucket_width=0.5)
    events = [queue.push(0.3 * i, lambda: None, ()) for i in range(20)]
    assert len(queue) == 20
    # Cancel a third up front (near and far entries alike).
    for event in events[::3]:
        event.cancel()
    assert len(queue) == 13
    # Pop a few, cancelling more between pops — including an event that
    # already fired (no-op) and a double-cancel (counted once).
    popped = queue.pop()
    assert len(queue) == 12
    popped.cancel()  # already fired: must not decrement
    assert len(queue) == 12
    events[5].cancel()
    events[5].cancel()
    remaining = 0
    while queue:
        queue.pop()
        remaining += 1
    assert remaining == 11
    assert len(queue) == 0
    with pytest.raises(SimulationError):
        queue.pop()


def test_push_fast_interleaves_with_handles():
    """Handle-free pushes share the same (time, seq) ordering domain."""
    queue = EventQueue()
    order = []
    queue.push_fast(2.0, order.append, ("fast-2",))
    handled = queue.push(1.0, order.append, ("handle-1",))
    queue.push_fast(1.0, order.append, ("fast-1",))
    assert len(queue) == 3
    first = queue.pop()
    assert first is handled
    # Materialised events for handle-free entries carry the entry data.
    second = queue.pop()
    assert second.args == ("fast-1",) and second.time == 1.0
    third = queue.pop()
    assert third.args == ("fast-2",)
    assert third.seq < first.seq  # pushed first, fires last (later time)


def test_push_batch_orders_and_counts():
    queue = EventQueue(bucket_width=0.25)
    seen = []
    queue.push_batch([3.0, 1.0, 2.0], seen.append, [("c",), ("a",), ("b",)])
    assert len(queue) == 3
    while queue:
        entry = queue.pop_until(None)
        entry[3](*entry[4])
    assert seen == ["a", "b", "c"]
    with pytest.raises(SimulationError):
        queue.push_batch([1.0], seen.append, [])


def test_ties_across_push_paths_fire_in_push_order():
    queue = EventQueue()
    seen = []
    queue.push(1.0, seen.append, ("first",))
    queue.push_batch([1.0, 1.0], seen.append, [("second",), ("third",)])
    queue.push_fast(1.0, seen.append, ("fourth",))
    while queue:
        entry = queue.pop_until(None)
        entry[3](*entry[4])
    assert seen == ["first", "second", "third", "fourth"]


# ----------------------------------------------------------------------
# Order-equivalence property: bucketed queue vs a plain binary heap
# ----------------------------------------------------------------------


def _reference_drain(ops):
    """Replay ops against a single heapq over (time, seq) — the old
    implementation's ordering contract."""
    heap = []
    cancelled = set()
    seq = 0
    for op, value in ops:
        if op == "push":
            heapq.heappush(heap, (value, seq))
            seq += 1
        else:  # cancel the value-th oldest still-pending push, if any
            pending = sorted(s for _, s in heap if s not in cancelled)
            if pending:
                cancelled.add(pending[value % len(pending)])
    out = []
    while heap:
        time, s = heapq.heappop(heap)
        if s not in cancelled:
            out.append((time, s))
    return out


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("push"),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=60,
    ),
    width=st.sampled_from([0.1, 0.25, 1.0, 3.7, 100.0]),
)
def test_order_equivalent_to_binary_heap(ops, width):
    """For any push/cancel interleaving and any bucket width, the
    bucketed queue pops the exact (time, seq) sequence a single binary
    heap would."""
    queue = EventQueue(bucket_width=width)
    handles = []
    for op, value in ops:
        if op == "push":
            handles.append(queue.push(value, lambda: None, ()))
        else:
            pending = [h for h in handles if not h.cancelled and h._queue is queue]
            if pending:
                pending[value % len(pending)].cancel()
    expected = _reference_drain(ops)
    got = []
    while queue:
        event = queue.pop()
        got.append((event.time, event.seq))
    assert got == expected
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=40),
        max_size=6,
    ),
    width=st.sampled_from([0.1, 0.25, 1.0, 3.7]),
)
def test_push_batch_runs_and_jumps_match_a_binary_heap(batches, width):
    """``push_batch`` looks a far bucket up once per run of equal keys;
    batches whose keys repeat, jump back to an earlier bucket or fall in
    the current one, pushed between partial drains, still pop in exact
    ``(time, seq)`` order."""
    queue = EventQueue(bucket_width=width)
    heap, seq, got, expected = [], 0, [], []
    for batch in batches:
        floor = queue.peek_time() or 0.0
        times = [floor + t for t in batch]
        queue.push_batch(times, lambda: None, [()] * len(times))
        for t in times:
            heapq.heappush(heap, (t, seq))
            seq += 1
        for _ in range(len(times) // 2):  # drain some: advances the bucket
            entry = queue.pop_until(None)
            got.append((entry[ENTRY_TIME], entry[ENTRY_SEQ]))
            expected.append(heapq.heappop(heap))
    while queue:
        entry = queue.pop_until(None)
        got.append((entry[ENTRY_TIME], entry[ENTRY_SEQ]))
    expected.extend(heapq.heappop(heap) for _ in range(len(heap)))
    assert got == expected


#: Few distinct times, so one bucket holds many entries of equal time.
TIED_TIMES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.0, 2.5, 4.0])


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["push", "push_fast"]), TIED_TIMES),
            st.tuples(st.just("push_batch"), st.lists(TIED_TIMES, max_size=8)),
            st.tuples(st.sampled_from(["cancel", "pop"]), st.integers(0, 50)),
        ),
        max_size=80,
    ),
    width=st.sampled_from([0.1, 0.25, 1.0]),
)
def test_equal_times_across_every_push_path_pop_in_seq_order(ops, width):
    """A poured bucket is sorted by time alone; its ties must still pop in
    ``seq`` order, whichever push paths wrote them, with cancellations and
    partial drains between the pushes."""
    queue = EventQueue(bucket_width=width)
    heap, handles, cancelled, got, expected = [], {}, set(), [], []
    seq = 0

    def pop_both():
        entry = queue.pop_until(None)
        got.append((entry[ENTRY_TIME], entry[ENTRY_SEQ]))
        while heap[0][1] in cancelled:
            heapq.heappop(heap)
        expected.append(heapq.heappop(heap))

    for op, value in ops:
        floor = queue.peek_time() or 0.0
        if op in ("push", "push_fast"):
            handle = getattr(queue, op)(floor + value, lambda: None, ())
            if handle is not None:
                handles[seq] = handle
            heapq.heappush(heap, (floor + value, seq))
            seq += 1
        elif op == "push_batch":
            times = [floor + t for t in value]
            queue.push_batch(times, lambda: None, [()] * len(times))
            for t in times:
                heapq.heappush(heap, (t, seq))
                seq += 1
        elif op == "cancel":
            live = [s for s, h in handles.items() if s not in cancelled and h._queue is queue]
            if live:
                victim = live[value % len(live)]
                handles[victim].cancel()
                cancelled.add(victim)
        else:
            for _ in range(min(value % 4, len(queue))):
                pop_both()
    while queue:
        pop_both()
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pop_until_horizon_sweep_matches_heap(seed):
    """Draining through staggered horizons (the simulator's run(until=...)
    pattern) yields the same order as an unbounded heap drain."""
    rng = random.Random(seed)
    times = [rng.uniform(0.0, 20.0) for _ in range(40)]
    queue = EventQueue(bucket_width=rng.choice([0.2, 1.0, 5.0]))
    for t in times:
        queue.push_fast(t, lambda: None, ())
    expected = sorted((t, s) for s, t in enumerate(times))
    got = []
    for horizon in (5.0, 5.0, 10.0, 15.0, None):
        while True:
            entry = queue.pop_until(horizon)
            if entry is None:
                break
            got.append((entry[ENTRY_TIME], entry[ENTRY_SEQ]))
    assert got == expected
