"""The ledger-backed ``LatencyCollector`` equals the observer-based one.

Hypothesis drives random completion / drop / failure / loss sequences
through the system's ledger writers (``_finish_request``,
``_drop_request`` and the outcome counters) at random simulated times,
feeds the same outcomes to the old observer-based collector
(``observer_latency_oracle``), and demands equality bit for bit — float
latency sums included — at bucket widths that do and do not divide the
timestamps evenly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencyCollector
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system
from tests.metrics.observer_latency_oracle import ObserverLatencyCollector, Outcome

#: ``(kind, gap to the previous outcome, time in the platform, hops)``.
outcomes = st.lists(
    st.tuples(
        st.sampled_from(("served", "served", "served", "dropped", "failed", "lost")),
        st.floats(min_value=0.0, max_value=45.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=31.0, allow_nan=False),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=80,
)


def _series(series):
    return list(series.items())


@pytest.mark.parametrize("width", [0.1, 0.3, 60.0])
@settings(max_examples=40, deadline=None)
@given(sequence=outcomes)
def test_latency_view_equals_observer_collector(width, sequence):
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=3)
    view = LatencyCollector(system, bucket=width, keep_samples=True)
    oracle = ObserverLatencyCollector(bucket=width, keep_samples=True)

    def settle(kind, issued_at, hops):
        now = sim.now
        if kind == "served":
            system._finish_request(0, 1, 2, issued_at, hops)
            oracle.observe(Outcome(issued_at, now, response_hops=hops))
        elif kind == "dropped":
            system._drop_request(now)
            oracle.observe(Outcome(issued_at, now, dropped=True))
        elif kind == "failed":
            system.failed_requests += 1
            oracle.observe(Outcome(issued_at, now, failed=True))
        else:
            system.lost_requests += 1
            oracle.observe(Outcome(issued_at, now, lost=True))

    at = 0.0
    for kind, gap, in_platform, hops in sequence:
        at += gap
        sim.schedule_at(at, settle, kind, max(0.0, at - in_platform), hops)
    sim.run()

    for name in ("completed", "dropped", "failed", "lost", "samples"):
        assert getattr(view, name) == getattr(oracle, name), name
    # Floats: ``==`` is exact equality, which is the claim.
    assert view.total_latency == oracle.total_latency
    assert view.max_latency == oracle.max_latency
    assert view.total_response_hops == oracle.total_response_hops
    assert _series(view.mean_latency_series()) == _series(oracle.mean_latency_series())
    assert _series(view.mean_response_hops_series()) == _series(
        oracle.mean_response_hops_series()
    )
    assert _series(view.dropped_series()) == _series(oracle.dropped_series())
