"""One declaration per knob: the config dataclasses are the schema.

A field of ``ScenarioConfig``, ``ProtocolConfig``, ``FaultConfig``,
``ConsistencyConfig``, ``LiveConfig``, ``LoadgenOptions`` or
``GapSettings`` says in its ``metadata`` what else it is:

``flag``, ``metavar``, ``help``, ``choices``, ``group``
    its command-line spelling (:func:`flag` builds the mapping);
    ``group`` names the one command a flag belongs to when it is not
    for every command that configures the dataclass;
``parse``
    a text parser, where the type does not say how to read the text
    (``NODE:AT:DUR``); a repeatable ``tuple[X, ...]`` field parses one
    element per occurrence;
``key``
    its ``--set`` spelling where that is not the field name;
``hash``
    :data:`NEVER` or :data:`AT_DEFAULT` when the field does not always
    take part in the sweep spec hash.

Type and default are read from the dataclass, so the functions below
are the only code that knows how a knob reaches argparse, ``--set`` and
the hash: adding a knob is declaring the field (DESIGN §4).
"""

from __future__ import annotations

import argparse
import dataclasses
from functools import cache, partial
from types import NoneType
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

#: ``hash`` rule of a field that verifies a run without changing it.
NEVER = "never"
#: ``hash`` rule of a field left out while it holds its default, so
#: hashes (and baselines) made before the field existed stay valid.
AT_DEFAULT = "at-default"

_DEST = "knob:"
_HOLDS = {bool: bool, int: int, float: (int, float), str: str}
_NOUNS = {bool: "true or false", int: "a whole number", float: "a number"}


def flag(spelling: str, metavar: str | None = None, help: str = "", **more: Any) -> dict:
    """Field metadata declaring a command-line flag."""
    return {"flag": spelling, "metavar": metavar, "help": help, **more}


#: Resolved field types per config class (a handful of classes, for good).
_hints = cache(get_type_hints)


def _variadic(tp: Any) -> bool:
    return get_origin(tp) is tuple and get_args(tp)[-1:] == (Ellipsis,)


def _keyed(config: Any) -> dict[str, tuple[dataclasses.Field, Any]]:
    """``{--set key: (field, type)}`` for ``config``'s own fields."""
    hints = _hints(type(config))
    return {
        field.metadata.get("key", field.name): (field, hints[field.name])
        for field in dataclasses.fields(config)
    }


def _convert(
    tp: Any, value: Any, key: str, parse: Callable[[str], Any] | None = None
) -> Any:
    """``value`` as a ``tp`` field holds it: text is parsed, the rest checked."""
    if NoneType in get_args(tp):
        if value is None or value == "none":
            return None
        tp = next(t for t in get_args(tp) if t is not NoneType)
    if isinstance(value, str):
        if parse is not None:
            return parse(value)
        if tp is bool and value in ("true", "false"):
            return value == "true"
        if tp in (int, float):
            try:
                return tp(value)
            except ValueError:
                pass
    base = get_origin(tp) or tp
    holds = (list, tuple) if base is tuple else _HOLDS.get(base, base)
    if isinstance(value, holds) and (tp is bool or not isinstance(value, bool)):
        return value
    what = "text" if isinstance(value, str) else type(value).__name__
    raise ConfigurationError(
        f"{key} does not take {what}: {value!r} is not "
        f"{_NOUNS.get(tp, getattr(tp, '__name__', 'a list'))}"
    )


def add_flags(target: Any, config: Any, prefix: str = "", group: str | None = None) -> None:
    """Add the flags ``config``'s fields declare for ``group`` to a parser.

    ``prefix`` is the dotted path of ``config`` inside the object
    :func:`given`'s keys will be applied to.  A flag stores nothing
    unless given; its help shows the default ``config`` holds.
    """
    hints = _hints(type(config))
    for field in dataclasses.fields(config):
        decl = field.metadata
        if "flag" not in decl or decl.get("group") != group:
            continue
        tp, default = hints[field.name], getattr(config, field.name)
        options: dict[str, Any] = {"dest": _DEST + prefix + field.name, "help": decl["help"]}
        if tp is bool:
            options.update(action="store_const", const=not default)
        else:
            element = get_args(tp)[0] if _variadic(tp) else tp
            options["type"] = partial(
                _convert, element, key=decl["flag"], parse=decl.get("parse")
            )
            options["choices"] = decl.get("choices")
            if options["choices"] is None:
                options["metavar"] = decl["metavar"] or decl["flag"].lstrip("-").upper()
            if _variadic(tp):
                options["action"] = "append"
            elif isinstance(default, (int, float, str)):
                shown = f"{default:g}" if isinstance(default, float) else default
                options["help"] += f" (default: {shown})"
        target.add_argument(decl["flag"], **options)


def given(args: argparse.Namespace, prefix: str = "") -> dict[str, Any]:
    """The schema flags present on the command line, ``{dotted key: typed
    value}``; ``prefix`` selects (and strips) one :func:`add_flags` prefix."""
    start = _DEST + prefix
    return {
        dest[len(start):]: value
        for dest, value in vars(args).items()
        if dest.startswith(start) and value is not None
    }


def set_keys(config: Any) -> dict[str, bool]:
    """``{--set key: takes a value list}`` for ``config``'s own fields."""
    return {key: _variadic(tp) for key, (_, tp) in _keyed(config).items()}


def apply_overrides(config: Any, overrides: Mapping[str, Any], _path: str = "") -> Any:
    """A copy of ``config`` with dotted-key overrides applied, revalidated.

    A key is a field's declared ``key`` or its name; ``head.tail``
    descends into a nested dataclass field, whose changes are applied
    together (``lw < hw`` holds for the pair, not for each).  Text is
    parsed by the field's type (or declared parser) and one item for a
    ``tuple[X, ...]`` field makes a one-element tuple; typed values are
    checked.  Unknown keys raise :class:`ConfigurationError`.
    """
    fields = _keyed(config)
    changes: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for key, value in overrides.items():
        head, dot, tail = key.partition(".")
        if key in fields:
            field, tp = fields[key]
            convert = partial(_convert, key=_path + key, parse=field.metadata.get("parse"))
            if not _variadic(tp):
                changes[field.name] = convert(tp, value)
            else:
                items = value if isinstance(value, (list, tuple)) else [value]
                changes[field.name] = tuple(convert(get_args(tp)[0], v) for v in items)
        elif dot and head in fields:
            if not dataclasses.is_dataclass(getattr(config, head)):
                raise ConfigurationError(
                    f"override key {_path + key!r} descends into "
                    f"non-dataclass field {head!r}"
                )
            nested.setdefault(head, {})[tail] = value
        else:
            raise ConfigurationError(
                f"unknown override key {_path + key!r}; known: "
                + ", ".join(sorted(_path + name for name in fields))
            )
    for head, inner in nested.items():
        changes[head] = apply_overrides(getattr(config, head), inner, f"{_path}{head}.")
    return dataclasses.replace(config, **changes) if changes else config


def hash_payload(config: Any) -> dict[str, Any]:
    """What the spec hash covers of ``config``: every field but those
    declared :data:`NEVER`, or :data:`AT_DEFAULT` while at their default."""
    payload: dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value, rule = getattr(config, field.name), field.metadata.get("hash")
        if rule == AT_DEFAULT:
            factory = field.default_factory
            default = field.default if factory is dataclasses.MISSING else factory()
            if value == default:
                continue
        if rule != NEVER:
            payload[field.name] = (
                hash_payload(value) if dataclasses.is_dataclass(value) else value
            )
    return payload
