"""The paper's Table 1 as data.

``table1_rows`` renders the scenario configuration in the paper's
Table 1 layout (the ``table1.parameters`` claim checks it reproduces
:data:`PAPER_TABLE1` verbatim at full scale).  Table 2's statistics are
claims rows in :mod:`repro.analysis.claims`.
"""

from __future__ import annotations

from repro.scenarios.config import ScenarioConfig

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
