"""Shared helpers for the benchmark harness.

Benchmarks print paper-vs-measured tables.  pytest captures stdout, so
:func:`report` writes through to the real stdout (visible in the tee'd
bench log) and also writes ``benchmarks/reports/<head>.txt`` so every
figure/table reproduction leaves a durable artifact.  ``<head>`` is the
report name up to its first ``:``, so that part must be unique per
report ("Ablation (placement interval): ...", not "Ablation: ...") or
one report overwrites another.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPORT_DIR = Path(__file__).parent / "reports"


def report(name: str, text: str) -> None:
    """Emit a reproduction report to the console and to a file."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    output = banner + text + "\n"
    sys.__stdout__.write(output)
    sys.__stdout__.flush()
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name.split(':')[0].strip().replace(' ', '_').lower()}.txt"
    path.write_text(output)


def fmt_pct(value: float) -> str:
    return f"{value * 100:.1f}%"
