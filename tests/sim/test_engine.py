"""Unit tests for the simulator core."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_run_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "b")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_schedule_after_is_relative():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda: sim.schedule_after(0.5, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.5]


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, 1)
    sim.schedule_at(5.0, fired.append, 5)
    end = sim.run(until=3.0)
    assert fired == [1]
    assert end == 3.0
    assert sim.pending == 1
    # Resuming picks up the remaining event.
    sim.run()
    assert fired == [1, 5]


def test_event_at_horizon_still_fires():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, 3)
    sim.run(until=3.0)
    assert fired == [3]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule_after(-1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule_at(1.0, fired.append, 1)
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_double_cancel_is_idempotent():
    """One canonical cancellation path: cancelling twice (through either
    the simulator or the event handle, in any mix) is a no-op."""
    sim = Simulator()
    event = sim.schedule_at(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    event.cancel()
    assert sim.pending == 0


def test_event_cancel_directly_keeps_pending_in_sync():
    """Event.cancel() must decrement the live count just like
    Simulator.cancel() (historically it skipped the queue bookkeeping)."""
    sim = Simulator()
    event = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    event.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_cancel_after_firing_is_noop():
    sim = Simulator()
    event = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    sim.run(until=1.0)
    sim.cancel(event)  # already fired: must not corrupt the live count
    assert sim.pending == 1


def test_stop_ends_run_early():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule_at(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    assert sim.pending == 1


def test_events_scheduled_now_fire_this_run():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: sim.schedule_at(sim.now, fired.append, "nested"))
    sim.run()
    assert fired == ["nested"]


def test_run_until_advances_clock_when_queue_drains():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    end = sim.run(until=10.0)
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_advances_clock_when_all_remaining_cancelled():
    """Regression: when the loop exits because every remaining heap entry
    is tombstoned (peek_time() is None), the clock must still advance to
    the horizon, exactly as on the queue-drained exit."""
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, 1)
    doomed = sim.schedule_at(5.0, fired.append, 5)
    sim.schedule_at(1.0, lambda: doomed.cancel())
    end = sim.run(until=10.0)
    assert fired == [1]
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_boundary_semantics():
    """Events scheduled exactly at ``until`` fire; later ones don't."""
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "at")
    sim.schedule_at(3.0 + 1e-9, fired.append, "after")
    end = sim.run(until=3.0)
    assert fired == ["at"]
    assert end == 3.0
    assert sim.pending == 1
    sim.run()
    assert fired == ["at", "after"]


class _EventHook:
    """A tracer with ``on_event`` only."""

    def __init__(self, on_event):
        self.on_event = on_event


def test_trace_hook_sees_events():
    sim = Simulator()
    traced = []
    sim.add_tracer(_EventHook(traced.append))
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert len(traced) == 1
    assert traced[0].time == 1.0


class _RecordingTracer:
    def __init__(self):
        self.events = []
        self.runs = []

    def on_event(self, event):
        self.events.append(event.time)

    def on_run_start(self, sim, until):
        self.runs.append(("start", sim.now, until))

    def on_run_end(self, sim, fired):
        self.runs.append(("end", sim.now, fired))


def test_pluggable_tracer_sees_events_and_run_boundaries():
    sim = Simulator()
    tracer = _RecordingTracer()
    sim.add_tracer(tracer)
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    sim.run(until=5.0)
    assert tracer.events == [1.0, 2.0]
    assert tracer.runs == [("start", 0.0, 5.0), ("end", 5.0, 2)]


def test_tracers_compose_in_registration_order():
    sim = Simulator()
    tracer = _RecordingTracer()
    seen = []
    sim.add_tracer(tracer)
    sim.add_tracer(_EventHook(lambda event: seen.append((event.time, list(tracer.events)))))
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert tracer.events == [1.0]
    assert seen == [(1.0, [1.0])]


def test_simulator_has_one_tracing_mechanism():
    sim = Simulator()
    with pytest.raises(AttributeError):
        sim.trace = lambda event: None


def test_partial_tracer_hooks_are_optional():
    class EndOnly:
        def __init__(self):
            self.fired = None

        def on_run_end(self, sim, fired):
            self.fired = fired

    sim = Simulator()
    tracer = EndOnly()
    sim.add_tracer(tracer)
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    # No on_event hook attached: the loop stays untraced, fired count 0.
    assert tracer.fired == 0


def test_a_failing_start_hook_ends_the_run():
    class Refusing:
        def __init__(self):
            self.ended = 0

        def on_run_start(self, sim, until):
            raise RuntimeError("not now")

        def on_run_end(self, sim, fired):
            self.ended += 1

    sim = Simulator()
    tracer = Refusing()
    sim.add_tracer(tracer)
    fired = []
    sim.schedule_at(1.0, fired.append, 1.0)
    with pytest.raises(RuntimeError, match="not now"):
        sim.run()
    assert tracer.ended == 1 and fired == []
    sim.remove_tracer(tracer)
    assert sim.run() == 1.0 and fired == [1.0]


def test_remove_tracer():
    sim = Simulator()
    tracer = _RecordingTracer()
    sim.add_tracer(tracer)
    sim.remove_tracer(tracer)
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert tracer.events == []
    with pytest.raises(SimulationError):
        sim.remove_tracer(tracer)


def test_duplicate_tracer_rejected():
    sim = Simulator()
    tracer = _RecordingTracer()
    sim.add_tracer(tracer)
    with pytest.raises(SimulationError):
        sim.add_tracer(tracer)


def _scripted_run(seed: int, width: float, traced: bool):
    """Drive a seeded program of self-scheduling, cancelling callbacks
    through ``Simulator.run`` in three horizon steps; return the fire log.

    Every decision a callback takes is drawn from its own RNG in firing
    order, so two engines that fire in the same order stay in lockstep.
    """
    rng = random.Random(seed)
    sim = Simulator(bucket_width=width)
    if traced:
        sim.add_tracer(_EventHook(lambda event: None))  # forces the pop_until-only loop
    log = []
    handles = []

    def fire(tag):
        log.append((sim.now, tag))
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            # Mostly shorter than the bucket width: the new event lands
            # in the bucket being drained (both queue heads live).
            delay = rng.choice((0.0, width * rng.random(), 3.0 * rng.random()))
            child = (tag, len(handles))
            if rng.random() < 0.5:
                sim.post_after(delay, fire, child)
            else:
                handles.append(sim.schedule_after(delay, fire, child))
        if handles and rng.random() < 0.3:
            handles[rng.randrange(len(handles))].cancel()
        if rng.random() < 0.01:
            sim.stop()

    for index in range(30):
        handles.append(sim.schedule_at(10.0 * rng.random(), fire, index))
    ends = [sim.run(until=horizon) for horizon in (4.0, 9.0, 40.0)]
    return log, ends, sim.pending


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    width=st.sampled_from([0.05, 0.25, 1.0, 7.0]),
)
def test_inline_drain_matches_pop_until_loop(seed, width):
    """The untraced loop's three inline regimes (sorted run only, near
    heap only, both heads) fire exactly what the traced loop — which
    pops through ``EventQueue.pop_until`` alone — fires, under pushes
    into the current bucket, cancellations, horizons and ``stop()``."""
    assert _scripted_run(seed, width, traced=False) == _scripted_run(
        seed, width, traced=True
    )
