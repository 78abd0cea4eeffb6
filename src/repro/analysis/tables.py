"""Paper tables as data (Table 1 parameters, Table 2 statistics).

``table1_rows`` renders the scenario configuration in the paper's
Table 1 layout (the ``table1.parameters`` claim checks it reproduces
:data:`PAPER_TABLE1` verbatim at full scale).  ``table2_row`` computes
one workload's adjustment time and mean replica count from a finished
run; the paper's reference values are embedded for side-by-side
reporting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.scenarios.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.runner import ScenarioResult

#: The paper's Table 1 without its watermark rows, verbatim.
PAPER_TABLE1: tuple[tuple[str, str], ...] = (
    ("Number of objects", "10000"),
    ("Size of object", "12KB"),
    ("Placement decision frequency", "Every 100 seconds"),
    ("Node request rate", "40 requests per sec"),
    ("Server capacity", "200 requests per sec"),
    ("Network delay", "10ms per hop"),
    ("Link bandwidth", "350 KBps"),
    ("Deletion threshold u", "0.03 requests/sec"),
    ("Replication threshold m", "6u, or 0.18 requests/sec"),
)
#: Table 2 of the paper: workload -> (adjustment minutes, mean replicas).
PAPER_TABLE2: dict[str, tuple[float, float]] = {
    "hot-sites": (20.0, 2.62),
    "hot-pages": (22.0, 2.59),
    "regional": (20.0, 1.49),
    "zipf": (23.0, 1.86),
}


def table1_rows(config: ScenarioConfig) -> list[tuple[str, str]]:
    """The scenario's parameters in the paper's Table 1 layout."""
    protocol = config.protocol
    return [
        ("Number of objects", f"{config.num_objects}"),
        ("Size of object", f"{config.object_size // 1024}KB"),
        (
            "Placement decision frequency",
            f"Every {protocol.placement_interval:g} seconds",
        ),
        ("Node request rate", f"{config.node_request_rate:g} requests per sec"),
        ("Server capacity", f"{config.capacity:g} requests per sec"),
        ("Network delay", f"{config.hop_delay * 1000:g}ms per hop"),
        ("Link bandwidth", f"{config.bandwidth / 1000:g} KBps"),
        ("High watermark", f"{protocol.high_watermark:g} requests/sec"),
        ("Low watermark", f"{protocol.low_watermark:g} requests/sec"),
        ("Deletion threshold u", f"{protocol.deletion_threshold:g} requests/sec"),
        (
            "Replication threshold m",
            f"{protocol.replication_threshold / protocol.deletion_threshold:g}u, "
            f"or {protocol.replication_threshold:g} requests/sec",
        ),
    ]


def table2_row(result: "ScenarioResult") -> dict[str, float]:
    """Adjustment time (minutes) and mean replicas for one run."""
    return {
        "adjustment_minutes": result.adjustment_time() / 60.0,
        "replicas_per_object": result.replicas_per_object(),
    }


def table2_rows(
    results: dict[str, "ScenarioResult"],
) -> list[tuple[str, float, float, float, float]]:
    """Measured-vs-paper Table 2 rows.

    Returns ``(workload, measured_minutes, paper_minutes,
    measured_replicas, paper_replicas)`` per workload present in both the
    results and the paper's table.
    """
    rows = []
    for workload, (paper_minutes, paper_replicas) in PAPER_TABLE2.items():
        result = results.get(workload)
        if result is None:
            continue
        measured = table2_row(result)
        rows.append(
            (
                workload,
                measured["adjustment_minutes"],
                paper_minutes,
                measured["replicas_per_object"],
                paper_replicas,
            )
        )
    return rows
