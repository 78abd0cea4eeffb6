"""Ablations over the protocol's tunable parameters.

The paper (Section 6.1) flags several tradeoffs it defers to [1]: the
distribution constant (2), the m/u threshold ratio (6), the placement
interval, and the watermark band.  These sweeps regenerate the tradeoffs
on the Zipf workload so DESIGN.md's claims about each knob are backed by
data.  All runs use a smaller scale/duration than the headline figures —
the point is the ordering between settings, not absolute levels.

Each ablation is one :class:`repro.sweep.SweepSpec` executed by the
sweep engine (parallel across cores when available), and reads its
numbers from the per-point metric aggregation rather than from live
simulator objects.
"""

from __future__ import annotations

import pytest

from repro.metrics.report import format_table
from repro.scenarios.presets import paper_scenario
from repro.sweep import SweepSpec, default_workers, point_label, run_sweep

from benchmarks._util import fmt_pct, report

SCALE = 0.15
DURATION = 1500.0


def _base():
    return paper_scenario("zipf", scale=SCALE, duration=DURATION)


def _sweep(spec):
    result = run_sweep(spec, workers=default_workers())
    assert not result.failures, [r.error for r in result.failures]
    return result


@pytest.fixture(scope="module")
def constant_sweep():
    spec = SweepSpec.grid(
        _base(),
        {"protocol.distribution_constant": (1.5, 2.0, 4.0)},
        name="ablation-distribution-constant",
    )
    return _sweep(spec)


def test_ablation_distribution_constant(constant_sweep, benchmark):
    points = constant_sweep.aggregate()

    def tabulate():
        return [
            [
                f"{constant:g}",
                fmt_pct(metrics["proximity_reduction"].mean),
                f"{metrics['replicas_per_object'].mean:.2f}",
                f"{metrics['max_load_settled'].mean:.1f}",
            ]
            for constant, metrics in (
                (c, points[f"distribution_constant={c}"])
                for c in (1.5, 2.0, 4.0)
            )
        ]

    rows = benchmark(tabulate)
    report(
        "Ablation (distribution constant): paper uses 2",
        format_table(
            ["constant", "proximity reduction", "replicas/object", "settled max load"],
            rows,
        )
        + "\nLarger constants favour proximity (closest replica keeps a "
        "bigger share);\nsmaller constants spread load more evenly.",
    )
    for metrics in points.values():
        assert metrics["proximity_reduction"].mean > 0.2


def test_ablation_threshold_ratio(benchmark):
    """m/u ratio: the paper requires m > 4u (Theorem 5) and uses m = 6u
    'to prevent boundary effects'.  A tighter ratio must increase
    replica churn (drops), which is exactly the vicious cycle the
    constraint exists to damp."""

    u = 0.03 * SCALE
    ratios = (4.5, 6.0, 12.0)
    overrides = {
        ratio: {
            "protocol.deletion_threshold": u,
            "protocol.replication_threshold": ratio * u,
        }
        for ratio in ratios
    }
    spec = SweepSpec(
        base=_base(),
        points=tuple(overrides.values()),
        name="ablation-threshold-ratio",
    )

    result = benchmark.pedantic(lambda: _sweep(spec), rounds=1, iterations=1)
    points = result.aggregate()
    rows = []
    drops = {}
    for ratio in ratios:
        metrics = points[point_label(overrides[ratio])]
        drops[ratio] = metrics["replica_drops"].mean
        rows.append(
            [
                f"{ratio:g}",
                f"{drops[ratio]:.0f}",
                f"{metrics['replicas_per_object'].mean:.2f}",
                fmt_pct(metrics["proximity_reduction"].mean),
            ]
        )
    report(
        "Ablation (threshold ratio): m/u, paper uses 6",
        format_table(
            ["m/u", "replica drops", "replicas/object", "proximity reduction"],
            rows,
        ),
    )
    # Churn decreases as the ratio widens.
    assert drops[4.5] >= drops[12.0]


def test_ablation_placement_interval(benchmark):
    """Responsiveness vs burst sensitivity: shorter intervals adjust
    faster (the paper chose 100 s to mask sub-minute burstiness)."""

    intervals = (50.0, 100.0, 200.0)
    spec = SweepSpec.grid(
        _base(),
        {"protocol.placement_interval": intervals},
        name="ablation-placement-interval",
    )

    result = benchmark.pedantic(lambda: _sweep(spec), rounds=1, iterations=1)
    points = result.aggregate()
    adjustment = {
        interval: points[f"placement_interval={interval}"]["adjustment_time"].mean
        for interval in intervals
    }
    rows = [
        [
            f"{interval:g}s",
            f"{adjustment[interval] / 60:.1f} min",
            fmt_pct(points[f"placement_interval={interval}"]["proximity_reduction"].mean),
        ]
        for interval in intervals
    ]
    report(
        "Ablation (placement interval): paper uses 100 s",
        format_table(
            ["interval", "adjustment time", "proximity reduction"], rows
        ),
    )
    assert adjustment[50.0] <= adjustment[200.0] * 1.5
