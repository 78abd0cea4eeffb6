"""The window request generator against its per-event oracle."""

import pytest

from repro.errors import WorkloadError
from repro.scenarios import runner
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.workloads.base import (
    ARRIVALS_PER_FILL,
    RequestGenerator,
    attach_generators,
)
from tests.workloads.per_event_oracle import (
    PerEventRequestGenerator,
    attach_per_event_generators,
)


class _ArrivalLog:
    """A stand-in system that records (time, gateway, obj) per request."""

    def __init__(self, sim, num_objects=100):
        self.sim = sim
        self.num_objects = num_objects
        self.arrivals = []

    def submit_request(self, gateway, obj):
        self.arrivals.append((self.sim.now, gateway, obj))


def _workload(num_objects=100):
    from repro.workloads.zipf import ZipfWorkload

    return ZipfWorkload(num_objects)


@pytest.mark.parametrize("poisson", [False, True])
def test_batched_arrivals_identical_to_per_event(poisson):
    """Same RNG stream, same draw order: the pre-drawn arrival vectors
    reproduce the per-event generator's times and objects exactly."""
    runs = {}
    for cls in (PerEventRequestGenerator, RequestGenerator):
        sim = Simulator()
        system = _ArrivalLog(sim)
        rng = RngFactory(7).stream("gen-0")
        gen = cls(sim, system, _workload(), 0, 5.0, rng, poisson=poisson)
        sim.run(until=30.0)
        gen.stop()
        runs[cls] = system.arrivals
    assert runs[RequestGenerator] == runs[PerEventRequestGenerator]
    assert len(runs[RequestGenerator]) > 100


def test_generated_counts_agree_after_horizon():
    sim = Simulator()
    system = _ArrivalLog(sim)
    gen = RequestGenerator(
        sim, system, _workload(), 0, 10.0, RngFactory(3).stream("gen-0")
    )
    sim.run(until=20.0)
    # Scheduled counts run up to one pre-draw window ahead of fired
    # arrivals; every fired arrival was counted.
    fired = len(system.arrivals)
    assert fired > 150
    assert fired <= gen.generated <= fired + ARRIVALS_PER_FILL + 1


def test_stop_prevents_new_windows():
    sim = Simulator()
    system = _ArrivalLog(sim)
    gen = RequestGenerator(
        sim, system, _workload(), 0, 10.0, RngFactory(3).stream("gen-0")
    )
    sim.run(until=4.0)
    gen.stop()
    gen.stop()  # idempotent
    scheduled = gen.generated
    sim.run(until=100.0)
    # Pre-drawn arrivals (up to one window ahead) still fire, but no
    # refill ever runs again.
    assert len(system.arrivals) == scheduled
    assert sim.pending == 0


def test_batched_validation():
    sim = Simulator()
    system = _ArrivalLog(sim)
    rng = RngFactory(1).stream("gen-0")
    with pytest.raises(WorkloadError):
        RequestGenerator(sim, system, _workload(), 0, 0.0, rng)
    with pytest.raises(WorkloadError):
        RequestGenerator(sim, system, _workload(200), 0, 1.0, rng)


def test_attach_generators_draws_nothing_before_the_run():
    """Building the generators costs one pending event each (the first
    fill): no arrival is drawn or scheduled until the run starts."""
    sim = Simulator()

    class _System(_ArrivalLog):
        class routes:
            class topology:
                nodes = range(3)

    system = _System(sim)
    generators = attach_generators(sim, system, _workload(), 5.0, RngFactory(1))
    assert [g.gateway for g in generators] == [0, 1, 2]
    assert sim.pending == len(generators)
    assert all(g.generated == 0 for g in generators)
    sim.run(until=0.0)  # the fills fire at the construction instant
    assert all(g.generated >= ARRIVALS_PER_FILL - 1 for g in generators)
    assert system.arrivals == []


def test_full_scenario_metrics_identical_with_batching(monkeypatch):
    """End-to-end: a full protocol scenario produces identical metrics
    under the window generator and the per-event oracle (arrival ties
    across generators are measure-zero thanks to random per-gateway
    phases)."""
    config = ScenarioConfig(workload="zipf", duration=240.0, seed=5).scaled(0.05)
    windowed = scenario_metrics(run_scenario(config))
    monkeypatch.setattr(runner, "attach_generators", attach_per_event_generators)
    per_event = scenario_metrics(run_scenario(config))
    assert windowed == per_event
