"""Tests for request generation."""

import pytest

from repro.errors import WorkloadError
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import line_topology
from repro.workloads.base import (
    ARRIVALS_PER_FILL,
    RequestGenerator,
    UniformWorkload,
    attach_generators,
)
from tests.conftest import make_system, served_log


@pytest.fixture
def system():
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=10)
    system.initialize_round_robin()
    return system


def _drain(system, generator):
    """Stop ``generator`` and let everything it scheduled be served."""
    generator.stop()
    system.sim.run()


def test_constant_rate_generation(system):
    workload = UniformWorkload(10)
    rng = RngFactory(1).stream("g")
    served = served_log(system)
    generator = RequestGenerator(
        system.sim, system, workload, gateway=0, rate=10.0, rng=rng
    )
    system.sim.run(until=10.0)
    _drain(system, generator)
    # ~100 requests in 10 s at 10 req/s (phase offset costs at most one).
    assert 98 <= sum(1 for r in served if r.issued_at <= 10.0) <= 101
    # ``generated`` counts scheduled arrivals: all of them, once drained.
    assert generator.generated == len(served)


def test_poisson_rate_approximates_target(system):
    workload = UniformWorkload(10)
    served = served_log(system)
    generator = RequestGenerator(
        system.sim,
        system,
        workload,
        gateway=0,
        rate=20.0,
        rng=RngFactory(2).stream("g"),
        poisson=True,
    )
    system.sim.run(until=50.0)
    _drain(system, generator)
    issued = sum(1 for r in served if r.issued_at <= 50.0)
    assert issued == pytest.approx(1000, rel=0.15)


def test_stop_halts_generation(system):
    served = served_log(system)
    generator = RequestGenerator(
        system.sim,
        system,
        UniformWorkload(10),
        gateway=0,
        rate=10.0,
        rng=RngFactory(3).stream("g"),
    )
    system.sim.schedule_at(5.0, generator.stop)
    system.sim.run(until=20.0)
    assert 45 <= sum(1 for r in served if r.issued_at <= 5.0) <= 51
    # Stopping cancels the next refill; what the current window had
    # already scheduled (at most one fill) still arrives.
    assert len(served) == generator.generated <= 51 + ARRIVALS_PER_FILL
    assert max(r.issued_at for r in served) < 5.0 + ARRIVALS_PER_FILL / 10.0
    generator.stop()  # idempotent


def test_attach_generators_covers_all_gateways(system):
    generators = attach_generators(
        system.sim, system, UniformWorkload(10), 5.0, RngFactory(4)
    )
    assert [g.gateway for g in generators] == [0, 1, 2]
    system.sim.run(until=2.0)
    assert all(g.generated > 0 for g in generators)


def test_generators_are_phase_offset(system):
    served = served_log(system)
    attach_generators(system.sim, system, UniformWorkload(10), 1.0, RngFactory(5))
    system.sim.run(until=3.0)
    first_times = {}
    for record in served:
        first_times.setdefault(record.gateway, record.issued_at)
    assert len(first_times) == 3
    assert len(set(first_times.values())) == 3


def test_invalid_rate(system):
    with pytest.raises(WorkloadError):
        RequestGenerator(
            system.sim,
            system,
            UniformWorkload(10),
            gateway=0,
            rate=0.0,
            rng=RngFactory(1).stream("g"),
        )


def test_workload_namespace_must_fit_system(system):
    with pytest.raises(WorkloadError):
        RequestGenerator(
            system.sim,
            system,
            UniformWorkload(11),
            gateway=0,
            rate=1.0,
            rng=RngFactory(1).stream("g"),
        )


def test_workload_needs_objects():
    with pytest.raises(WorkloadError):
        UniformWorkload(0)
