"""The control messages' wire form (``core/runtime.py``), without sockets.

``to_wire`` and ``from_wire`` are the one codec for every control body
the live tier sends; the HTTP tables in ``tests/live`` referee what a
server does with a bad body, these pin the codec itself.
"""

import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import (
    AFFINITY,
    LOAD,
    NODE,
    OBJ,
    OBJS,
    AffinityReduced,
    CreateObj,
    LoadReport,
    ReplicaCreated,
    RequestDrop,
    WireError,
    from_wire,
    to_wire,
)
from repro.types import PlacementAction, PlacementReason

WIRE_MESSAGES = (CreateObj, ReplicaCreated, AffinityReduced, RequestDrop, LoadReport)
LIMITS = (5, 40)  # (nodes, objects)


class _Missing:
    """Marks a key left out of the body (with a stable test id)."""

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()


def _receiver_fields(cls) -> set[str]:
    """The attributes a receiver supplies: those that are not on the wire."""
    on_wire = {attr for _key, attr, _kind in cls.WIRE}
    return {field.name for field in dataclasses.fields(cls)} - on_wire


def _kind_values(kind, nodes: int, objects: int) -> st.SearchStrategy:
    if kind is NODE:
        return st.integers(0, nodes - 1)
    if kind is OBJ:
        return st.integers(0, objects - 1)
    if kind is OBJS:
        ids = st.lists(st.integers(0, objects - 1), min_size=1, max_size=8, unique=True)
        return ids.map(tuple)
    if kind is AFFINITY:
        return st.integers(1, 10**6)
    if kind is LOAD:
        return st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
    return st.sampled_from(list(kind.values()))


@st.composite
def wire_messages(draw):
    cls = draw(st.sampled_from(WIRE_MESSAGES))
    limits = (draw(st.integers(1, 60)), draw(st.integers(1, 2000)))
    fields = {attr: draw(_kind_values(kind, *limits)) for _key, attr, kind in cls.WIRE}
    receiver = {name: draw(st.integers(0, 10**6)) for name in _receiver_fields(cls)}
    return cls(**fields, **receiver), limits, receiver


@settings(max_examples=300, deadline=None)
@given(wire_messages())
def test_every_message_survives_the_wire(case):
    message, limits, receiver = case
    body = json.loads(json.dumps(to_wire(message)))
    assert list(body) == [key for key, _attr, _kind in message.WIRE]
    assert from_wire(type(message), body, limits, **receiver) == message


GOOD = {
    CreateObj: (
        CreateObj(1, 2, PlacementAction.REPLICATE, 3, 0.5, PlacementReason.GEO),
        {"candidate": 2},
    ),
    ReplicaCreated: (ReplicaCreated(3, 1, 2), {}),
    AffinityReduced: (AffinityReduced(1, 3, 2), {}),
    RequestDrop: (RequestDrop(1, (3, 7, 39)), {}),
    LoadReport: (LoadReport(4, 12.5), {}),
}

#: Per kind: out of range, of the wrong type (bools, strings, floats,
#: null, containers), unhashable, or missing.  Each must name its key.
BAD_VALUES = {
    NODE: [-1, LIMITS[0], 10**30, "0", 0.0, True, None, [0], {}, MISSING],
    OBJ: [-1, LIMITS[1], "1", 1.5, False, None, [1], {"obj": 1}, MISSING],
    OBJS: [
        [], [1, 1], [LIMITS[1]], [-1], ["1"], [True], [1.0], [[1]], [{}], [None],
        1, None, "1", {}, MISSING,
    ],
    AFFINITY: [0, -3, 1.0, "1", True, None, [1], {}, MISSING],
    LOAD: [-1, -0.5, math.nan, math.inf, -math.inf, "1", True, None, [1.0], {}, MISSING],
}
ENUM_BAD = ["teleport", "MIGRATE", "", 1, None, ["x"], {"a": 1}, MISSING]

BAD_FIELDS = [
    (cls, key, value)
    for cls in WIRE_MESSAGES
    for key, _attr, kind in cls.WIRE
    for value in (ENUM_BAD if type(kind) is dict else BAD_VALUES[kind])
] + [(CreateObj, "action", "drop")]  # a placement action, but not an offer's


def _body(cls, spoiled: dict) -> dict:
    body = to_wire(GOOD[cls][0])
    for key, value in spoiled.items():
        if value is MISSING:
            del body[key]
        else:
            body[key] = value
    return body


@pytest.mark.parametrize(
    "cls, key, value",
    BAD_FIELDS,
    ids=[f"{cls.__name__}.{key}={value!r}" for cls, key, value in BAD_FIELDS],
)
def test_a_bad_field_raises_wire_error_naming_its_key(cls, key, value):
    with pytest.raises(WireError) as raised:
        from_wire(cls, _body(cls, {key: value}), LIMITS, **GOOD[cls][1])
    assert raised.value.key == key
    assert str(raised.value).startswith(f"{key} must be ")


def test_the_good_bodies_decode():
    for cls, (message, receiver) in GOOD.items():
        assert from_wire(cls, to_wire(message), LIMITS, **receiver) == message
    # JSON may spell a whole-number load as an integer: it decodes to a float.
    assert from_wire(LoadReport, {"node": 0, "load": 3}, LIMITS) == LoadReport(0, 3.0)


@pytest.mark.parametrize("cls", WIRE_MESSAGES, ids=lambda cls: cls.__name__)
def test_several_bad_fields_name_the_first_in_wire_order(cls):
    keys = [key for key, _attr, _kind in cls.WIRE]
    for count in range(2, len(keys) + 1):
        for spoiled in itertools.combinations(keys, count):
            with pytest.raises(WireError) as raised:
                from_wire(cls, _body(cls, dict.fromkeys(spoiled)), LIMITS, **GOOD[cls][1])
            assert raised.value.key == spoiled[0]
