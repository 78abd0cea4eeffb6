"""Tests for the table builders and figure extractors."""

import pytest

from repro.analysis.figures import (
    PAPER_BANDWIDTH_REDUCTION,
    figure6_series,
    figure7_series,
    figure8_series,
)
from repro.analysis.tables import PAPER_TABLE2, table1_rows, table2_row, table2_rows
from repro.scenarios.presets import paper_parameters, paper_scenario
from repro.scenarios.runner import run_scenario


def test_table1_rows_reproduce_paper_text():
    rows = dict(table1_rows(paper_parameters()))
    assert rows["Number of objects"] == "10000"
    assert rows["Size of object"] == "12KB"
    assert rows["Placement decision frequency"] == "Every 100 seconds"
    assert rows["Node request rate"] == "40 requests per sec"
    assert rows["Server capacity"] == "200 requests per sec"
    assert rows["Network delay"] == "10ms per hop"
    assert rows["Link bandwidth"] == "350 KBps"
    assert rows["Deletion threshold u"] == "0.03 requests/sec"
    assert rows["Replication threshold m"] == "6u, or 0.18 requests/sec"


def test_paper_reference_values_present():
    assert set(PAPER_TABLE2) == {"zipf", "hot-sites", "hot-pages", "regional"}
    assert PAPER_BANDWIDTH_REDUCTION["regional"] == pytest.approx(0.901)


def test_figure_and_table_extractors_on_a_run():
    result = run_scenario(
        paper_scenario("uniform", scale=0.05, duration=150.0).replace(bucket=30.0)
    )
    fig6 = figure6_series(result)
    assert set(fig6) == {
        "bandwidth_byte_hops",
        "mean_latency",
        "mean_response_hops",
    }
    assert all(len(series) > 0 for series in fig6.values())

    fig7 = figure7_series(result)
    assert all(0 <= v <= 1 for v in fig7["overhead_fraction"].values)

    fig8 = figure8_series(result)
    assert len(fig8["max_load"]) > 0
    for actual, lower, upper in zip(
        fig8["focal_actual"].values,
        fig8["focal_lower"].values,
        fig8["focal_upper"].values,
    ):
        assert lower <= upper

    row = table2_row(result)
    assert row["replicas_per_object"] >= 1.0

    rows = table2_rows({"zipf": result})
    assert len(rows) == 1
    assert rows[0][0] == "zipf"
    assert rows[0][2] == 23.0  # paper minutes carried through
