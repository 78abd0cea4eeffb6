"""The ``python -m repro`` commands, one module per command family.

Each module holds its commands' ``populate_<command>(parser)`` and
``<command>_main(args)``; :mod:`repro.__main__` assembles them.  Flags
that restate a config field are not written here: they come from the
field's declaration through :mod:`repro.schema` (DESIGN §4).
"""

from __future__ import annotations

import json
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


def write_json(path: str, payload: Any) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
