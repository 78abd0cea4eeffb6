"""Tolerance-0 referee for the faulted + consistency request path.

See :mod:`tests.integration.faulted_golden` for what is pinned and how
the golden file was recorded.
"""

import json

import pytest

from repro.scenarios.runner import run_scenario
from tests.integration.faulted_golden import (
    GOLDEN_PATH,
    SEEDS,
    golden_digest,
    golden_scenario,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_scenario_exercises_the_fault_machinery():
    """The referee is only worth its runtime while every counter the
    per-message path feeds is non-zero in the pinned outcome."""
    for seed in SEEDS:
        pinned = GOLDEN["seeds"][str(seed)]
        metrics = pinned["scenario_metrics"]
        for name in (
            "rpc_retries",
            "failure_detections",
            "repairs",
            "unavailability_seconds",
            "messages_dropped",
            "messages_dropped_links",
            "messages_duplicated",
            "stale_reads",
            "anti_entropy_repushes",
            "replica_drops",
        ):
            assert metrics[name] > 0, (seed, name)
        assert all(pinned["dropped_by_class"].values()), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_faulted_run_matches_golden_exactly(seed):
    result = run_scenario(golden_scenario(seed))
    result.system.check_invariants()
    # Round-trip through JSON so tuples/lists and int/float spellings
    # compare the way the file stores them; floats survive repr exactly.
    digest = json.loads(json.dumps(golden_digest(result)))
    pinned = GOLDEN["seeds"][str(seed)]
    assert digest.keys() == pinned.keys()
    for section in pinned:
        assert digest[section] == pinned[section], section
