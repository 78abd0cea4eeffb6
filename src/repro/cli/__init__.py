"""The ``python -m repro`` commands, one module per command family.

Each module holds its commands' ``populate_<command>(parser)`` and
``<command>_main(args)``; :mod:`repro.__main__` assembles them.  Flags
that restate a config field are not written here: they come from the
field's declaration through :mod:`repro.schema` (DESIGN §4).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

from repro.errors import ConfigurationError


def parse_axes(pairs: list[str] | None) -> dict[str, list[str]]:
    """``--set KEY=V1,V2`` occurrences as ``{key: [text, ...]}``."""
    axes: dict[str, list[str]] = {}
    for pair in pairs or []:
        key, sep, values = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"bad --set {pair!r}; expected KEY=V1[,V2,...]")
        axes[key] = [v for v in values.split(",") if v != ""]
        if not axes[key]:
            raise ConfigurationError(f"bad --set {pair!r}: {key} has no values")
    return axes


def output_path(path: str) -> str:
    """An output ``PATH`` flag's type: its directory must exist ('-' is
    stdout), checked when the flags are parsed rather than after the run."""
    directory = os.path.dirname(path) or "."
    if path != "-" and not os.path.isdir(directory):
        raise ConfigurationError(f"cannot write {path}: no directory {directory}")
    return path


def write_json(path: str, payload: Any) -> None:
    """``payload`` as indented, key-sorted JSON at ``path`` ('-': stdout)."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as handle:
        handle.write(text)
