"""The exact series each paper figure plots, as plain data.

Every extractor returns dictionaries of named
:class:`~repro.metrics.collectors.TimeSeries`, renderer-independent so
that tests can assert on them and users can feed them to any plotting
library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.collectors import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.runner import ScenarioResult

#: Paper-reported payload-bandwidth reductions (Figure 6, Section 6.2).
PAPER_BANDWIDTH_REDUCTION: dict[str, float] = {
    "hot-pages": 0.629,
    "hot-sites": 0.683,
    "zipf": 0.601,
    "regional": 0.901,
}


def figure6_series(result: "ScenarioResult") -> dict[str, TimeSeries]:
    """Figure 6: bandwidth consumed and mean response latency over time."""
    return {
        "bandwidth_byte_hops": result.bandwidth.payload_series(),
        "mean_latency": result.latency.mean_latency_series(),
        "mean_response_hops": result.latency.mean_response_hops_series(),
    }


def figure7_series(result: "ScenarioResult") -> dict[str, TimeSeries]:
    """Figure 7: relocation overhead as a fraction of total traffic."""
    return {
        "overhead_fraction": result.bandwidth.overhead_fraction_series(),
        "overhead_byte_hops": result.bandwidth.overhead_series(),
    }


def figure8_series(result: "ScenarioResult") -> dict[str, TimeSeries]:
    """Figure 8: max system load; focal host's load vs bound estimates."""
    actual = TimeSeries()
    lower = TimeSeries()
    upper = TimeSeries()
    for sample in result.loads.focal_samples:
        actual.append(sample.time, sample.load)
        lower.append(sample.time, sample.lower_estimate)
        upper.append(sample.time, sample.upper_estimate)
    result.loads.finalize()
    return {
        "max_load": result.loads.max_series,
        "mean_load": result.loads.mean_series,
        "focal_actual": actual,
        "focal_lower": lower,
        "focal_upper": upper,
    }
