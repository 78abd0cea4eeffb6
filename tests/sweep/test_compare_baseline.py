"""The CI benchmark-regression gate's comparison logic."""

import copy

from benchmarks.compare_baseline import compare, compare_gap, compare_live

BASELINE = {
    "spec_hash": "abc",
    "runs": 4,
    "statuses": {"ok": 4},
    "throughput_rps": 1000.0,
    "points": {
        "base": {
            "bandwidth_reduction": {"mean": 0.5, "stdev": 0.01, "ci95": 0.02, "n": 2},
        }
    },
}


def _check(current):
    return compare(current, BASELINE)


def test_identical_summary_passes():
    assert _check(copy.deepcopy(BASELINE)) == []


def test_wall_clock_fields_are_not_read():
    current = copy.deepcopy(BASELINE)
    current["throughput_rps"] = 1.0  # 1000x slower: bench/ judges speed, not this gate
    assert _check(current) == []


def test_spec_hash_mismatch_fails_fast():
    current = copy.deepcopy(BASELINE)
    current["spec_hash"] = "other"
    current["statuses"] = {"crashed": 4}  # would also fail, but hash short-circuits
    problems = _check(current)
    assert len(problems) == 1
    assert "spec hash mismatch" in problems[0]


def test_failed_runs_fail_the_gate():
    current = copy.deepcopy(BASELINE)
    current["statuses"] = {"ok": 3, "crashed": 1}
    assert any("not all runs succeeded" in p for p in _check(current))


def test_deterministic_metric_drift_fails():
    """The gate is exact: the means depend only on seeds, so the
    smallest representable difference is a behaviour change."""
    current = copy.deepcopy(BASELINE)
    current["points"]["base"]["bandwidth_reduction"]["mean"] = 0.5 * (1 + 1e-9)
    problems = _check(current)
    assert len(problems) == 1
    assert "bandwidth_reduction changed" in problems[0]


def test_missing_point_and_metric_fail():
    current = copy.deepcopy(BASELINE)
    current["points"] = {}
    assert any("missing" in p for p in _check(current))
    current = copy.deepcopy(BASELINE)
    current["points"]["base"] = {}
    assert any("missing" in p for p in _check(current))


# ----------------------------------------------------------------------
# The --live saturation gate
# ----------------------------------------------------------------------

LIVE_BASELINE = {
    "schema": "live-saturation/v1",
    "results": {
        "shards-1": {"sustained_rps": 300.0},
        "shards-2": {"sustained_rps": 310.0},
        "shards-4": {"sustained_rps": 305.0},
    },
    "speedup_4v1": 1.02,
}


def _check_live(current, tolerance=0.25):
    return compare_live(current, LIVE_BASELINE, tolerance=tolerance)


def test_live_identical_passes():
    assert _check_live(copy.deepcopy(LIVE_BASELINE)) == []


def test_live_improvement_and_small_regression_pass():
    current = copy.deepcopy(LIVE_BASELINE)
    current["results"]["shards-4"]["sustained_rps"] = 900.0  # 3x better
    current["results"]["shards-1"]["sustained_rps"] = 240.0  # -20%
    current["speedup_4v1"] = 3.75
    assert _check_live(current) == []


def test_live_sustained_regression_fails():
    current = copy.deepcopy(LIVE_BASELINE)
    current["results"]["shards-2"]["sustained_rps"] = 200.0  # -35%
    problems = _check_live(current)
    assert len(problems) == 1
    assert "shards-2/sustained_rps regressed" in problems[0]


def test_live_sustained_collapse_to_zero_fails():
    current = copy.deepcopy(LIVE_BASELINE)
    current["results"]["shards-4"]["sustained_rps"] = 0.0
    current["speedup_4v1"] = 0.0
    problems = _check_live(current)
    assert any("sustained no load at all" in p for p in problems)


def test_live_speedup_regression_fails():
    current = copy.deepcopy(LIVE_BASELINE)
    current["speedup_4v1"] = 0.5  # the sharded tier got slower than 1 shard
    problems = _check_live(current)
    assert any("speedup_4v1 regressed" in p for p in problems)


def test_live_missing_configuration_fails():
    current = copy.deepcopy(LIVE_BASELINE)
    del current["results"]["shards-4"]
    assert any("missing" in p for p in _check_live(current))


def test_live_schema_mismatch_fails_fast():
    current = copy.deepcopy(LIVE_BASELINE)
    current["schema"] = "other/v2"
    current["results"]["shards-1"]["sustained_rps"] = 0.0  # hash short-circuits
    problems = _check_live(current)
    assert len(problems) == 1
    assert "schema mismatch" in problems[0]


# ----------------------------------------------------------------------
# The --gap optimality gate
# ----------------------------------------------------------------------


def _gap_point(strategy, ratio):
    return {
        "topology": "ktree-2-2",
        "load_scale": 1.0,
        "fault_mtbf": None,
        "strategy": strategy,
        "gap_ratio": ratio,
        "oracle_cost": 1500.0,
        "requests_serviced": 840,
    }


GAP_BASELINE = {
    "schema": "optgap-v1",
    "points": [_gap_point("paper", 1.02), _gap_point("static", 1.4)],
}


def _check_gap(current, tolerance=0.25):
    return compare_gap(current, GAP_BASELINE, tolerance=tolerance)


def test_gap_identical_passes():
    assert _check_gap(copy.deepcopy(GAP_BASELINE)) == []


def test_gap_ratio_below_one_is_not_a_lower_bound():
    current = copy.deepcopy(GAP_BASELINE)
    current["points"][0]["gap_ratio"] = 0.999  # -2%: inside the drift band
    problems = _check_gap(current)
    assert len(problems) == 1
    assert "lower bound" in problems[0]


def test_gap_non_finite_ratio_fails():
    for ratio in (float("nan"), float("inf"), None):
        current = copy.deepcopy(GAP_BASELINE)
        current["points"][1]["gap_ratio"] = ratio
        problems = _check_gap(current)
        assert len(problems) == 1 and "must be finite" in problems[0], ratio


def test_gap_missing_baseline_point_fails():
    current = copy.deepcopy(GAP_BASELINE)
    del current["points"][1]
    problems = _check_gap(current)
    assert len(problems) == 1
    assert "static" in problems[0] and "missing" in problems[0]


def test_gap_drift_beyond_tolerance_fails():
    current = copy.deepcopy(GAP_BASELINE)
    current["points"][1]["gap_ratio"] = 1.4 * 1.3
    problems = _check_gap(current)
    assert len(problems) == 1
    assert "gap_ratio drifted +30.0%" in problems[0]
    assert _check_gap(current, tolerance=0.35) == []


def test_gap_schema_mismatch_fails_fast():
    current = copy.deepcopy(GAP_BASELINE)
    current["schema"] = "optgap-v2"
    current["points"] = []  # would also fail, but the schema short-circuits
    problems = _check_gap(current)
    assert len(problems) == 1
    assert "schema mismatch" in problems[0]
