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
touches a transport; sub-steps compose with ``yield from``.  Each
runtime drives the generator with its own loop:
:meth:`HostingSystem.drive <repro.core.protocol.HostingSystem.drive>`
answers every message synchronously over the simulated backbone, and
:meth:`LiveSystem.drive <repro.live.system.LiveSystem.drive>` awaits
each answer over HTTP on the host's event loop.  :class:`SystemPort` is
what the step may read besides: configuration, clock, routes, tracer,
the hosts the runtime owns, and the placement log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Mapping, Protocol, TypeVar, runtime_checkable

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
    the messages below and its runtime's drive loop answers them.
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
# The control conversations (Figures 3-5), as messages.  A protocol step
# is a generator: ``answer = yield Message(...)``; the runtime's loop
# performs the conversation and sends the answer back in.  Slotted but
# not frozen: a frozen dataclass's __init__ costs about four times as
# much, paid per message on the simulator's placement path.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CreateObj:
    """Offer ``obj`` to ``candidate`` (Figure 4).  Answer: accepted?"""

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

    node: NodeId
    objs: tuple[ObjectId, ...]


@dataclass(slots=True)
class FindRecipient:
    """Find an under-loaded offload recipient (Figure 5, step 1).

    Answer: ``(recipient, reported_upper_load, low_watermark)`` — the
    recipient "responds to the requesting host with its load value" — or
    ``None`` when no probed candidate is below its low watermark.
    """

    source: NodeId
    now: Time


#: Anything a protocol step may yield.
Message = CreateObj | AffinityReduced | RequestDrop | FindRecipient

R = TypeVar("R")
#: A protocol step: yields messages, is sent their answers, returns ``R``.
Step = Generator[Message, object, R]
