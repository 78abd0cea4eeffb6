"""The 500-host / 100k-object preset, pinned exactly.

No other tier-1 test runs ``large_topology_scenario``.  The run is
seeded and deterministic, so the completed-request count is a
fingerprint of the calendar queue and batched arrivals at scale: any
drift means the engine changed simulation behaviour, not speed (speed
is ``bench/run.py --workload sim-large``).
"""

import tracemalloc

from repro.routing.shortest_path import ShortestPathIndex
from repro.scenarios.presets import large_topology_scenario
from repro.scenarios.runner import run_scenario


def test_large_preset_completes_exactly_and_keeps_invariants():
    config, topology = large_topology_scenario(duration=20.0)
    result = run_scenario(config, topology=topology)
    assert result.latency.completed == 102656
    assert result.engine_mode() == "fast lane: installed"
    result.system.check_invariants()


def test_routing_index_holds_distances_only():
    """A byte budget, not a timing: 500 distance rows are ~2 MB; the n²
    parent lists the index carried until PR 22 made it 26.7 MB."""
    _, topology = large_topology_scenario()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index = ShortestPathIndex(topology)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 6e6
    assert len(index._paths) == 0
    index.path(0, topology.num_nodes - 1)
    assert len(index._paths) == 1
