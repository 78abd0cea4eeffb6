"""Analysis helpers: paper tables and figures.

:mod:`~repro.analysis.tables` assembles Table 2 rows
(adjustment time, mean replicas) from scenario results;
:mod:`~repro.analysis.figures` extracts the exact series each paper
figure plots, in a renderer-independent form the benchmark harness
prints and tests assert against.
"""

from repro.analysis.links import (
    class_byte_shares,
    hottest_links,
    link_reports,
    traffic_concentration,
)
from repro.analysis.figures import (
    figure6_series,
    figure7_series,
    figure8_series,
)
from repro.analysis.stats import across_seeds, summarize
from repro.analysis.tables import table1_rows, table2_row, table2_rows

__all__ = [
    "table1_rows",
    "table2_row",
    "table2_rows",
    "figure6_series",
    "figure7_series",
    "figure8_series",
    "across_seeds",
    "summarize",
    "link_reports",
    "hottest_links",
    "traffic_concentration",
    "class_byte_shares",
]
