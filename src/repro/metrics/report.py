"""Plain-text rendering of tables and figure series.

The CLI and the examples print run summaries with these.  Output is plain
monospace text (this library runs offline; no plotting dependencies).
"""

from __future__ import annotations

from repro.metrics.collectors import TimeSeries

_BLOCKS = " ▁▂▃▄▅▆▇█"


def format_table(
    headers: list[str], rows: list[list[str]], *, title: str | None = None
) -> str:
    """Render an aligned monospace table."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(series: TimeSeries, *, width: int = 60) -> str:
    """A unicode block-character sketch of a series (resampled to width)."""
    if len(series) == 0:
        return "(empty series)"
    values = series.values
    if len(values) > width:
        # Mean-resample into `width` cells.
        cell = len(values) / width
        resampled = []
        for index in range(width):
            lo = int(index * cell)
            hi = max(lo + 1, int((index + 1) * cell))
            chunk = values[lo:hi]
            resampled.append(sum(chunk) / len(chunk))
        values = resampled
    top = max(values)
    if top <= 0:
        return _BLOCKS[0] * len(values)
    chars = []
    for value in values:
        level = int(round(value / top * (len(_BLOCKS) - 1)))
        chars.append(_BLOCKS[max(0, min(level, len(_BLOCKS) - 1))])
    return "".join(chars)


def series_summary(name: str, series: TimeSeries, *, unit: str = "") -> str:
    """One-line summary: first / equilibrium / reduction, plus a sketch."""
    if len(series) == 0:
        return f"{name}: (empty)"
    first = series.values[0]
    equilibrium = series.mean_tail()
    reduction = (1.0 - equilibrium / first) * 100.0 if first else 0.0
    suffix = f" {unit}" if unit else ""
    return (
        f"{name}: start={first:.4g}{suffix} eq={equilibrium:.4g}{suffix} "
        f"reduction={reduction:.1f}%  {sparkline(series)}"
    )


def percent(value: float, *, digits: int = 1) -> str:
    return f"{value * 100.0:.{digits}f}%"


def reduction_percent(start: float, equilibrium: float) -> float:
    """Relative reduction from ``start`` to ``equilibrium`` in [0, 1]."""
    if start == 0:
        return 0.0
    return 1.0 - equilibrium / start
