"""The seam between the protocol and its runtime: a clock and messages.

The replication/migration protocol logic (:mod:`repro.core.placement`,
:mod:`repro.core.create_obj`, :mod:`repro.core.offload`) is written
against this module instead of the simulator directly, so the same
decision code drives both runtimes:

* the **discrete-event simulator** (:class:`~repro.sim.engine.Simulator`
  inside :class:`~repro.core.protocol.HostingSystem`), where control
  conversations are modelled by the accounting RPC layer and time is the
  simulated clock; and
* the **live asyncio runtime** (:mod:`repro.live`), where the same
  conversations travel as JSON over real TCP sockets and time is the
  wall clock.

:class:`Clock` is the clock half of the seam: anything with a ``now``
property measured in seconds.  The simulator satisfies it natively; the
live runtime provides :class:`~repro.live.clock.WallClock` and the
test-driven :class:`~repro.live.clock.ManualClock`.

The conversations half is sans-I/O.  A protocol step —
``PlacementEngine.run_host``, ``PlacementEngine.reduce_affinity``,
``run_offload`` — is a generator that *yields* the control messages of
Figures 3-5 below (``accepted = yield CreateObj(...)``) and never
touches a transport; sub-steps compose with ``yield from``.  The step
owns every decision rule; a runtime only answers with what it sees.
Each runtime drives the generator with its own loop:
:meth:`HostingSystem.drive <repro.core.protocol.HostingSystem.drive>`
answers every message synchronously over the simulated backbone, and
:meth:`LiveSystem.drive <repro.live.system.LiveSystem.drive>` awaits
each answer over HTTP on the host's event loop.  :class:`SystemPort` is
what the step may read besides: configuration, clock, routes, tracer,
the hosts the runtime owns, and the placement log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Mapping, Protocol, TypeVar, runtime_checkable

from repro.errors import ReproError
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementReason,
    Time,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import ProtocolConfig
    from repro.core.host import HostServer
    from repro.routing.routes_db import RoutingDatabase


@runtime_checkable
class Clock(Protocol):
    """A monotonic clock in seconds — simulated or wall time."""

    @property
    def now(self) -> Time: ...  # pragma: no cover - protocol


class SystemPort(Protocol):
    """What the protocol decision code requires of its runtime.

    Attributes
    ----------
    config / clock / routes / tracer:
        Protocol parameters, the runtime's clock, the (shared, static)
        routing database, and an optional protocol tracer.
    hosts:
        Mapping from node id to the :class:`HostServer` state *this
        runtime owns*.  The simulator owns every host; a live host
        process owns exactly its own entry — the protocol code only ever
        indexes it with the node currently making a decision.

    The port has no conversation methods: the decision code *yields*
    the messages below and its runtime's drive loop answers them with
    facts, never with a decision of its own.
    """

    config: "ProtocolConfig"
    clock: Clock
    routes: "RoutingDatabase"
    tracer: object | None
    hosts: Mapping[NodeId, "HostServer"]

    def record_placement(
        self,
        action: PlacementAction,
        reason: PlacementReason,
        obj: ObjectId,
        *,
        source: NodeId,
        target: NodeId | None,
        copied_bytes: int = 0,
    ) -> None:
        """Log one replica-set change for metrics/observability."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# The wire form.  A message the live tier sends declares its JSON body
# once, as ``WIRE = ((wire key, attribute, kind), ...)``, which
# :func:`to_wire` encodes and :func:`from_wire` decodes and checks in that
# order.  A kind is a constant below (its text says what a bad value must
# be) or an enum subset ``{value: member}``.  The simulator encodes nothing.
# ----------------------------------------------------------------------

NODE = "a node id in [0, {nodes})"
OBJ = "an object id in [0, {objects})"
OBJS = "a non-empty list of distinct object ids in [0, {objects})"
AFFINITY = "an integer >= 1"
LOAD = "a finite number >= 0"


class WireError(ReproError):
    """A missing, mistyped or out-of-range field of a control body, named
    by ``key`` (a live server answers it 400)."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def to_wire(message) -> dict:
    """``message``'s JSON body, one entry per ``WIRE`` field."""
    body = {}
    for key, attr, kind in message.WIRE:
        value = getattr(message, attr)
        body[key] = list(value) if kind is OBJS else value.value if type(kind) is dict else value
    return body


def from_wire(cls, payload: dict, limits: tuple[int, int], **fields):
    """A ``cls`` from its JSON body, each ``WIRE`` field checked in order
    against ``limits`` = ``(nodes, objects)``; ``fields`` supplies the rest
    (the receiver's own).  The first bad field raises :class:`WireError`.
    The kinds are checked inline: a live server decodes every control body.
    """
    nodes, objects = limits
    for key, attr, kind in cls.WIRE:
        value = payload.get(key)
        if kind is NODE:
            ok = type(value) is int and 0 <= value < nodes
        elif kind is OBJ:
            ok = type(value) is int and 0 <= value < objects
        elif kind is AFFINITY:
            ok = type(value) is int and value >= 1
        elif kind is LOAD:
            ok = type(value) in (int, float) and 0 <= value < math.inf
            value = float(value) if ok else value
        elif kind is OBJS:  # element types before set(): a dict is unhashable
            ok = (
                type(value) is list and len(value) > 0
                and all(type(obj) is int and 0 <= obj < objects for obj in value)
                and len(set(value)) == len(value)
            )
            value = tuple(value) if ok else value
        else:
            ok = type(value) is str and value in kind
            value = kind[value] if ok else value
        if not ok:
            expected = (f"one of {tuple(kind)}" if type(kind) is dict
                        else kind.format(nodes=nodes, objects=objects))
            raise WireError(key, f"{key} must be {expected}, got {value!r}")
        fields[attr] = value
    return cls(**fields)


# ----------------------------------------------------------------------
# The control conversations (Figures 3-5), as messages.  A protocol step
# is a generator: ``answer = yield Message(...)``; the runtime's loop
# performs the conversation and sends the answer back in.  Slotted but
# not frozen: a frozen dataclass's __init__ costs about four times as
# much, paid per message on the simulator's placement path.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CreateObj:
    """Offer ``obj`` to ``candidate``, the receiver (Figure 4).  Answer: accepted?"""

    WIRE = (
        ("source", "source", NODE),
        ("obj", "obj", OBJ),
        ("unit_load", "unit_load", LOAD),
        ("action", "action", {a.value: a for a in (PlacementAction.MIGRATE,
                                                   PlacementAction.REPLICATE)}),
        ("reason", "reason", {r.value: r for r in PlacementReason}),
    )

    source: NodeId
    candidate: NodeId
    action: PlacementAction
    obj: ObjectId
    unit_load: float
    reason: PlacementReason


@dataclass(slots=True)
class AffinityReduced:
    """Tell the object's redirector about a non-final affinity drop.
    Answer: ``None`` (notify grade)."""

    WIRE = (("obj", "obj", OBJ), ("host", "node", NODE), ("affinity", "affinity", AFFINITY))

    node: NodeId
    obj: ObjectId
    affinity: int


@dataclass(slots=True)
class RequestDrop:
    """Ask the redirectors to approve dropping the last local affinity
    unit of each of ``objs`` (a persistent round trip).

    ``objs`` is a *run*: every object a placement round judged in a row
    whose last unit goes (``reduce_affinity`` yields a one-tuple).
    Answer: one approval per object, in order.  A runtime may frame the
    run as it likes — the simulator arbitrates object by object, the
    live tier posts one conversation per owning shard — as long as each
    redirector judges its objects in this order.
    """

    WIRE = (("objs", "objs", OBJS), ("host", "node", NODE))

    node: NodeId
    objs: tuple[ObjectId, ...]


@dataclass(slots=True)
class ReadBoard:
    """Read the load board as of ``now`` (Figure 5).  Answer: ``[(node,
    reported_load, low_watermark)]``, fresh reports but ``source``'s, most
    idle first."""

    source: NodeId
    now: Time


@dataclass(slots=True)
class ProbeLoad:
    """Ask ``candidate`` for its load (Figure 5).  Answer: ``(upper_load,
    low_watermark)``, or ``None`` if it is unreachable or unavailable."""

    source: NodeId
    candidate: NodeId


@dataclass(slots=True)
class ReplicaCreated:
    """Register a new copy of ``obj`` at ``node``, or an affinity increase
    (sent by the CreateObj candidate, not yielded by a step)."""

    WIRE = (("obj", "obj", OBJ), ("host", "node", NODE), ("affinity", "affinity", AFFINITY))

    obj: ObjectId
    node: NodeId
    affinity: int


@dataclass(slots=True)
class LoadReport:
    """``node``'s load this measurement interval, posted to the board that
    Offload searches (Figure 5)."""

    WIRE = (("node", "node", NODE), ("load", "load", LOAD))

    node: NodeId
    load: float


#: Anything a protocol step may yield.
Message = CreateObj | AffinityReduced | RequestDrop | ReadBoard | ProbeLoad

R = TypeVar("R")
#: A protocol step: yields messages, is sent their answers, returns ``R``.
Step = Generator[Message, object, R]
