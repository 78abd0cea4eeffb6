"""Experiment scenarios: Table 1 parameters, presets and the runner.

A :class:`~repro.scenarios.config.ScenarioConfig` bundles every knob of a
simulation run (topology seed, workload, rates, protocol parameters,
duration); :func:`~repro.scenarios.runner.run_scenario` builds the full
system, attaches collectors, runs it, and returns a
:class:`~repro.scenarios.runner.ScenarioResult` with the paper's metrics.

:mod:`~repro.scenarios.presets` provides the paper's exact configurations
(low-load 90/80, high-load 50/40, each of the four workloads) and the
*scaled* variants ``paper_scenario`` returns by default — proportional
scaling of request rate, capacity, watermarks and thresholds that
preserves the placement dynamics while shrinking the event count; pass
``scale=1.0`` to run paper scale.
"""

from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import (
    WORKLOAD_NAMES,
    paper_parameters,
    paper_scenario,
)
from repro.scenarios.runner import ScenarioResult, build_system, run_scenario

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "build_system",
    "paper_parameters",
    "paper_scenario",
    "WORKLOAD_NAMES",
]
