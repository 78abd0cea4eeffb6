"""Tests for phased workloads."""

import pytest

from repro.errors import WorkloadError
from repro.sim.rng import RngFactory
from repro.workloads.base import UniformWorkload
from repro.workloads.mixture import PhasedWorkload


class FixedWorkload(UniformWorkload):
    """Always returns the same object (test helper)."""

    def __init__(self, num_objects, value):
        super().__init__(num_objects)
        self.value = value

    def sample(self, gateway, rng):
        rng.random()  # consume entropy like a real workload
        return self.value


def test_phased_switches_at_boundaries():
    clock_value = [0.0]
    phased = PhasedWorkload(
        [(0.0, FixedWorkload(10, 1)), (100.0, FixedWorkload(10, 2))],
        clock=lambda: clock_value[0],
    )
    rng = RngFactory(1).stream("p")
    assert phased.sample(0, rng) == 1
    clock_value[0] = 99.9
    assert phased.sample(0, rng) == 1
    clock_value[0] = 100.0
    assert phased.sample(0, rng) == 2
    clock_value[0] = 500.0
    assert phased.sample(0, rng) == 2


def test_phased_validation():
    with pytest.raises(WorkloadError):
        PhasedWorkload([], clock=lambda: 0.0)
    with pytest.raises(WorkloadError):
        PhasedWorkload([(5.0, FixedWorkload(10, 1))], clock=lambda: 0.0)
    with pytest.raises(WorkloadError):
        PhasedWorkload(
            [(0.0, FixedWorkload(10, 1)), (0.0, FixedWorkload(10, 2))],
            clock=lambda: 0.0,
        )
    with pytest.raises(WorkloadError):
        PhasedWorkload(
            [(0.0, FixedWorkload(10, 1)), (10.0, FixedWorkload(20, 2))],
            clock=lambda: 0.0,
        )
