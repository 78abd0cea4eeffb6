"""The 500-host / 100k-object preset, pinned exactly.

No other tier-1 test runs ``large_topology_scenario``.  The run is
seeded and deterministic, so the completed-request count is a
fingerprint of the calendar queue and batched arrivals at scale: any
drift means the engine changed simulation behaviour, not speed (speed
is ``bench/run.py --workload sim-large``).
"""

from repro.scenarios.presets import large_topology_scenario
from repro.scenarios.runner import run_scenario


def test_large_preset_completes_exactly_and_keeps_invariants():
    config, topology = large_topology_scenario(duration=20.0)
    result = run_scenario(config, topology=topology)
    assert result.latency.completed == 102656
    assert result.engine_mode() == "fast lane: installed"
    result.system.check_invariants()
