"""The fixed benchmark-smoke sweep behind the CI regression gate.

One canonical, cheap, fully-deterministic sweep — 2 seeds x 2 placement
intervals on the Zipf workload at load scale 0.05 — defined in exactly
one place so the committed baseline (``benchmarks/reports/baseline.json``),
the CI ``bench-smoke`` job and any local re-run all execute the same
spec (and therefore agree on ``spec_hash``).  The gate requires every
per-point metric mean to equal the baseline's — the runs are seeded, so
any difference is a behaviour change — and reads no wall-clock field;
see ``benchmarks/compare_baseline.py``.
"""

from __future__ import annotations

from repro.scenarios.presets import paper_scenario
from repro.sweep.spec import SweepSpec

#: Load-axis scale of the smoke runs (cheap but dynamics-preserving).
SMOKE_SCALE = 0.05
#: Simulated seconds per smoke run (4 metric buckets at the 60 s width).
SMOKE_DURATION = 240.0
#: Seeds the smoke sweep runs (explicit, not derived: the baseline's
#: deterministic metrics must never shift under a root-seed change).
SMOKE_SEEDS = (1, 2)
#: Placement-interval axis (seconds) — exercises the override machinery.
SMOKE_INTERVALS = (50.0, 100.0)


def smoke_spec() -> SweepSpec:
    """The canonical smoke sweep: 4 runs, ~tens of seconds of wall clock."""
    base = paper_scenario(
        "zipf", scale=SMOKE_SCALE, duration=SMOKE_DURATION, seed=SMOKE_SEEDS[0]
    )
    return SweepSpec.grid(
        base,
        {"protocol.placement_interval": SMOKE_INTERVALS},
        seeds=SMOKE_SEEDS,
        name="bench-smoke",
    )
