"""The faulted-path exactness referee: scenario, digest and recorder.

The pinned sweep spec hash only covers fault-free runs.  This module
pins the other half: a small scenario with every fast-lane blocker on
(loss, duplication, jitter, a host outage, a partition, provider writes
with epidemic batching and anti-entropy), whose complete observable
outcome — scalar metrics, per-class byte-hops, bandwidth series, fault
and RPC counters, and the final state of the fault RNG stream — is
committed to ``tests/data/faulted_golden.json`` and compared at
tolerance 0 by ``test_faulted_golden.py``.

The file was recorded on the commit *before* the per-message path was
rebuilt (PR 13), so it is the old implementation's verdict on the new
one.  Re-record (only when behaviour is meant to change) with::

    PYTHONPATH=src python -m tests.integration.faulted_golden --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from repro.consistency.config import ConsistencyConfig
from repro.network.faults import FaultConfig
from repro.network.message import MessageClass
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import run_scenario, scenario_metrics

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "faulted_golden.json"
SEEDS = (1, 2, 3)

#: The scenario as ``python -m repro run`` flags (seed appended by the
#: caller); stored in the golden file so the command line that
#: reproduces it travels with it (``tests/test_cli.py`` holds the two
#: spellings to the same config).
CLI_FLAGS = (
    "--workload", "zipf", "--scale", "0.05", "--duration", "150",
    "--loss", "0.02", "--dup", "0.01", "--jitter", "0.005",
    "--outage", "7:20:40", "--partition", "0,1,2,3:70:30",
    "--write-rate", "5", "--category-mix", "0.6:0.3:0.1",
    "--epidemic-interval", "10", "--anti-entropy-interval", "15",
)  # fmt: skip


def golden_scenario(seed: int):
    """The refereed scenario at ``seed`` (same shape as ``CLI_FLAGS``)."""
    return paper_scenario("zipf", scale=0.05, duration=150.0, seed=seed).replace(
        faults=FaultConfig(
            enabled=True,
            drop_prob=0.02,
            duplicate_prob=0.01,
            delay_jitter=0.005,
            outages=((7, 20.0, 40.0),),
            partitions=(((0, 1, 2, 3), 70.0, 30.0),),
        ),
        consistency=ConsistencyConfig(
            write_rate=5.0,
            category_mix=(0.6, 0.3, 0.1),
            epidemic_interval=10.0,
            anti_entropy_interval=15.0,
        ),
    )


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def golden_digest(result) -> dict:
    """Everything the per-message path can influence, JSON-safe."""
    system = result.system
    plane = system.fault_plane
    bandwidth = result.bandwidth
    return {
        "scenario_metrics": scenario_metrics(result),
        "byte_hops": {
            cls.value: float(system.network.byte_hops[cls]) for cls in MessageClass
        },
        "bandwidth_series": {
            cls.value: [list(item) for item in bandwidth.class_series(cls).items()]
            for cls in MessageClass
        },
        "dropped_by_class": {
            cls.value: plane.dropped[cls] for cls in MessageClass
        },
        "fault_summary": plane.summary(),
        "rpc_summary": system.rpc.summary(),
        "fault_rng_state_sha256": _sha(plane._rng.getstate()),
    }


def record() -> dict:
    return {
        "cli": list(CLI_FLAGS),
        "seeds": {
            str(seed): golden_digest(run_scenario(golden_scenario(seed)))
            for seed in SEEDS
        },
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
