"""JSONL export/import for decision-trace records.

The schema is flat and self-describing: one JSON object per line, the
``kind`` field discriminating the record type, every other field exactly
the dataclass field of the matching :mod:`repro.obs.records` class
(enums as their value strings, tuples as arrays).  Example lines::

    {"kind": "choose-replica", "obj": 7, "gateway": 12, "chosen": 3, ...}
    {"kind": "create-obj", "source": 3, "candidate": 9, "accepted": false, ...}

A ``provenance`` line (the code's revision, and a simulated run's spec
hash, seed and engine) may lead the file."""

from __future__ import annotations

import enum
import json
import os
import subprocess
from dataclasses import fields
from pathlib import Path
from typing import IO, Any, Iterable


def revision(path: str = os.path.dirname(__file__)) -> str | None:
    """``git describe --always --dirty`` of the checkout holding ``path``
    (this package's, by default); ``None`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=path, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def record_as_dict(record: Any) -> dict[str, Any]:
    """Flatten one record dataclass to a JSON-safe dict (kind first)."""
    out: dict[str, Any] = {"kind": record.kind}
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[field.name] = value
    return out


def dump_jsonl(records: Iterable[Any], stream: IO[str], header: dict | None = None) -> int:
    """Write records to an open text stream as JSONL, after a
    ``provenance`` line holding ``header`` if given; returns the count."""
    if header is not None:
        stream.write(json.dumps({"kind": "provenance", **header}) + "\n")
    count = 0
    for record in records:
        stream.write(json.dumps(record_as_dict(record)))
        stream.write("\n")
        count += 1
    return count


def write_jsonl(records: Iterable[Any], path: str | Path, header: dict | None = None) -> int:
    """:func:`dump_jsonl` to ``path``; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        return dump_jsonl(records, handle, header)


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace back as dicts (blank lines skipped; a provenance header first)."""
    out: list[dict[str, Any]] = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
