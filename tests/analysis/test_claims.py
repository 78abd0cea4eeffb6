"""The paper-claims scorecard: rows, verdicts, the Thm 5 counter, the CLI."""

import json
import time

import pytest

from repro.__main__ import main
from repro.analysis import claims
from repro.analysis.claims import CLAIMS, quick_drops, scorecard
from repro.analysis.stats import summarize
from repro.scenarios.presets import WORKLOAD_NAMES
from repro.types import PlacementAction, PlacementEvent, PlacementReason

BY_ID = {claim.id: claim for claim in CLAIMS}


def _low(**overrides):
    run = dict(
        bandwidth_reduction=0.5, proximity_reduction=0.52, latency_start=0.26,
        latency_equilibrium=0.16, bandwidth_equilibrium=100.0,
        overhead_fraction_fullscale=0.027, overhead_tail=0.01, overhead_peak=0.2,
        max_load_final=24.6, high_watermark=27.0, max_load=44.8, capacity=60.0,
        replicas_per_object=1.56, adjustment_time=1440.0,
        bracket_samples=150.0, bracket_inside=140.0, bracket_spread=80.0,
        replications=1000.0, replications_dropped_within_interval=480.0,
    )
    run.update(overrides)
    return run


def hand_made(zipf_bandwidth=0.398, zipf_replicas=1.328):
    """One seed's measurements, shaped like the seed-1 reports."""
    m = {
        "low/zipf": _low(),
        "low/hot-sites": _low(
            bandwidth_reduction=0.27, proximity_reduction=0.59, latency_start=25.0,
            bandwidth_equilibrium=110.0, overhead_peak=0.1, max_load_final=30.0,
            max_load=60.0, replicas_per_object=1.98, adjustment_time=1920.0,
        ),
        "low/hot-pages": _low(
            bandwidth_reduction=0.55, proximity_reduction=0.57, latency_start=0.27,
            overhead_fraction_fullscale=0.025, overhead_peak=0.1,
            replicas_per_object=1.99, adjustment_time=1920.0,
        ),
        "low/regional": _low(
            bandwidth_reduction=0.84, proximity_reduction=0.87, latency_start=0.27,
            latency_equilibrium=0.10, bandwidth_equilibrium=30.0,
            overhead_fraction_fullscale=0.045, overhead_tail=0.02, overhead_peak=0.1,
            replicas_per_object=1.49, adjustment_time=1920.0,
        ),
        "sec3": {
            "paper/balanced/america": 0.5, "paper/balanced/europe": 0.49,
            "paper/hotspot/europe": 0.34, "round-robin/hotspot/europe": 0.5,
            "closest/hotspot/europe": 0.0, "closest-of-2": 0.6668,
            "closest-of-4": 0.4, "closest-of-6": 0.286,
        },
        "table1": {"mismatches": 0.0, "high_load_distance": 0.0},
        "zipf": dict(
            proximity_reduction=0.413, bandwidth_reduction=zipf_bandwidth,
            replicas_per_object=zipf_replicas, bandwidth_equilibrium=60.0,
            hops_equilibrium=2.40, latency_equilibrium=0.204,
        ),
        "constant=1.5": {"proximity_reduction": 0.326},
        "constant=4": {"proximity_reduction": 0.425},
        "ratio=4.5": {"replica_drops": 14640.0},
        "ratio=12": {"replica_drops": 4102.0},
        "interval=50": {"adjustment_time": 600.0},
        "interval=200": {"adjustment_time": 1020.0},
        "strategy=static": {"bandwidth_equilibrium": 100.0, "hops_equilibrium": 4.10},
        "strategy=round-robin": {"hops_equilibrium": 4.02},
        "strategy=closest": {"latency_equilibrium": 0.220, "hops_equilibrium": 2.78},
        "adr": dict(
            hops_equilibrium=1.28, hops_start=4.23, adr_read_hops=0.275,
            replicas_per_object=1.26, adr_replicas_per_object=5.34,
            relocations=33098.0, adr_relocations=48193.0, adr_expansions=100.0,
        ),
    }
    high = {  # workload: (bandwidth_equilibrium, proximity_reduction, replicas)
        "zipf": (160.0, 0.20, 1.17),
        "hot-sites": (150.0, 0.42, 1.58),
        "hot-pages": (200.0, 0.11, 1.11),
        "regional": (120.0, 0.41, 1.08),
    }
    for workload, (bandwidth, proximity, replicas) in high.items():
        m[f"high/{workload}"] = dict(
            bandwidth_equilibrium=bandwidth,
            proximity_reduction=proximity,
            replicas_per_object=replicas,
        )
    return m


#: Each row's value on :func:`hand_made`, worked out by hand.
EXPECTED = {
    "fig6.proximity": 0.52,
    "fig6.regional-first": 0.84 - 0.55,
    "fig6.regional": 0.84,
    "fig6.zipf": 0.5,
    "fig6.hot-pages": 0.55,
    "fig6.latency-falls": 0.16 / 0.26,
    "fig6.hot-sites-start": 25.0,
    "fig6.hot-sites-settles": 0.16,
    "fig6.same-equilibrium": 0.1,
    "fig7.overhead": 0.045,
    "fig7.decays": 0.02 / 0.1,
    "fig8a.settled": 30.0 / 27.0,
    "fig8a.hot-sites-saturated": 1.0,
    "fig8a.hot-sites-relieved": 0.5,
    "fig8b.samples": 150.0,
    "fig8b.bracket": 140.0 / 150.0,
    "fig8b.bounds-used": 80.0,
    "fig9.bandwidth": 150.0 / 110.0,
    "fig9.proximity-shrinks": 0.42 - 0.59,
    "fig9.proximity-survives": 0.11,
    "fig9.replicas": 1.17 - 1.56,
    "table2.adjustment-min": 24.0,
    "table2.adjustment-max": 32.0,
    "table2.replicas-min": 1.49,
    "table2.replicas-max": 1.99,
    "table2.regional-fewest": 1.49 - 1.56,
    "table2.hot-sites-vs-regional": 1.98 - 1.49,
    "thm5.no-oscillation": 0.48,
    "sec3.balanced": 0.49,
    "sec3.hotspot": 0.34 - 1 / 3,
    "sec3.round-robin": 0.0,
    "sec3.closest": 0.0,
    "sec3.closest-of-n": 0.286 - 2 / 7,
    "table1.parameters": 0.0,
    "table1.high-load": 0.0,
    "ablation.constant": 0.326,
    "ablation.ratio": 14640.0 - 4102.0,
    "ablation.interval": 600.0 / 1020.0,
    "baseline.bandwidth": 0.6,
    "baseline.hops": 2.40 / 4.10,
    "baseline.round-robin": 4.02 / 2.40,
    "baseline.closest-latency": 0.220 / 0.204,
    "baseline.closest-hops": 2.78 / 2.40,
    "adr.protocol-improves": 1.28 / 4.23,
    "adr.adr-improves": 0.275 / 4.23,
    "adr.over-replicates": 5.34 / 1.26,
    "adr.churn": 48193.0 / 33098.0,
    "adr.expands": 100.0,
    "adr.protocol-budget": 1.26,
}

SEED_BANDWIDTH = (0.398, 0.411, 0.398)
SEED_REPLICAS = (1.328, 1.330, 1.327)
POOLED = {
    "seeds.bandwidth": summarize(SEED_BANDWIDTH).low,
    "seeds.bandwidth-tight": summarize(SEED_BANDWIDTH).ci95 / summarize(SEED_BANDWIDTH).mean,
    "seeds.replicas-low": summarize(SEED_REPLICAS).low,
    "seeds.replicas-high": summarize(SEED_REPLICAS).high,
}


def test_every_row_is_worked_out_and_ids_are_unique():
    assert len(BY_ID) == len(CLAIMS)
    assert set(EXPECTED) | set(POOLED) == set(BY_ID)
    assert {c.id for c in CLAIMS if c.pooled} == set(POOLED)


@pytest.mark.parametrize("claim_id", sorted(EXPECTED))
def test_row_reads_hand_made_measurements(claim_id):
    assert BY_ID[claim_id].value(hand_made()) == pytest.approx(EXPECTED[claim_id])


def test_pooled_rows_read_every_seed():
    seeds = [hand_made(b, r) for b, r in zip(SEED_BANDWIDTH, SEED_REPLICAS)]
    for claim_id, expected in POOLED.items():
        assert BY_ID[claim_id].value(seeds) == pytest.approx(expected)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_row_passes_and_fails_at_its_threshold_edge(claim):
    for op, bound in claim.bounds:
        step = max(abs(bound), 1.0) * 1e-9
        lower_bound = op.startswith(">")
        inward = bound + step if lower_bound else bound - step
        outward = bound - step if lower_bound else bound + step
        assert claim.holds(inward), (op, bound)
        assert not claim.holds(outward), (op, bound)
        assert claim.holds(bound) == op.endswith("="), (op, bound)


def test_scorecard_judges_each_seed_and_needs_all_of_them():
    seeds = {
        seed: hand_made(b, r)
        for seed, b, r in zip((1, 2, 3), SEED_BANDWIDTH, SEED_REPLICAS)
    }
    seeds[2]["low/zipf"]["bracket_inside"] = 134.0  # 89.3 %: the seed-2 Fig. 8b
    del seeds[3]["adr"]  # a run that never reported
    rows = {row["id"]: row for row in scorecard(seeds)}
    bracket = rows["fig8b.bracket"]
    assert bracket["verdicts"] == {"1": True, "2": False, "3": True}
    assert not bracket["holds"]
    assert rows["fig8b.bracket"]["threshold"] == "> 0.9"
    adr = rows["adr.expands"]
    assert adr["values"]["3"] is None and adr["verdicts"]["3"] is False
    assert rows["fig6.regional"]["holds"]
    assert not rows["thm5.no-oscillation"]["holds"]  # 48 % on the hand-made seed
    assert rows["seeds.bandwidth"]["verdicts"] == {"pooled": True}
    for claim_id, row in rows.items():
        for seed, value in row["values"].items():
            assert row["verdicts"][seed] == (
                value is not None and BY_ID[claim_id].holds(value)
            )


def _event(time, action, obj, source, target=None):
    return PlacementEvent(time, action, PlacementReason.GEO, obj, source, target)


def test_quick_drops_counts_replicas_undone_within_the_interval():
    replicate, drop, migrate = (
        PlacementAction.REPLICATE, PlacementAction.DROP, PlacementAction.MIGRATE,
    )
    events = [
        _event(100.0, replicate, 1, source=0, target=5),  # dropped at 180: counts
        _event(100.0, replicate, 2, source=0, target=5),  # dropped at 250: too late
        _event(120.0, replicate, 1, source=0, target=6),  # never dropped
        _event(150.0, migrate, 3, source=4, target=5),
        _event(180.0, drop, 1, source=5),
        _event(200.0, drop, 3, source=5),  # not a replication
        _event(200.0, drop, 1, source=5),  # already counted
        _event(250.0, drop, 2, source=5),
        _event(300.0, replicate, 2, source=0, target=5),  # re-created ...
        _event(400.0, drop, 2, source=5),  # ... and dropped exactly one interval on
    ]
    assert quick_drops(events, 100.0) == (4, 2)
    assert quick_drops(events, 150.0) == (4, 3)
    assert quick_drops([], 100.0) == (0, 0)


def test_claims_cli_end_to_end_on_a_shrunken_plan(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(claims, "SEEDS", (1,))
    monkeypatch.setattr(claims, "PAPER_SHAPE", (0.02, 130.0))
    monkeypatch.setattr(claims, "ZIPF_SHAPE", (0.02, 130.0))
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
    out = tmp_path / "claims.json"
    started = time.monotonic()
    assert main(["claims", "--out", str(out)]) == 0
    assert time.monotonic() - started < 10.0
    card = json.loads(out.read_text())
    assert card["schema"] == "claims/v1" and card["seeds"] == [1]
    assert card["failures"] == []
    assert set(card["spec_hashes"]) == {"claims-paper", "claims-zipf", "claims-adr"}
    assert [row["id"] for row in card["claims"]] == [c.id for c in CLAIMS]
    for row in card["claims"]:
        assert set(row) == {
            "id", "source", "statement", "paper", "threshold", "values",
            "verdicts", "holds",
        }
        assert set(row["verdicts"]) == ({"pooled"} if BY_ID[row["id"]].pooled else {"1"})
    runs = card["measurements"]["1"]
    assert {f"low/{w}" for w in WORKLOAD_NAMES} | {"zipf", "adr", "sec3"} <= set(runs)
    table = capsys.readouterr().out.splitlines()
    rows = [line for line in table if line.startswith("| `")]
    assert len(rows) == len(CLAIMS)
    assert all(line.count(" | ") == 6 for line in rows)  # seven cells, no stray pipe
    assert table[-1].startswith(f"{sum(r['holds'] for r in card['claims'])} of {len(CLAIMS)}")
