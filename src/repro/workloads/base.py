"""Workload protocol and request generation.

A workload maps ``(gateway, rng)`` to an object id; a
:class:`RequestGenerator` submits requests for one gateway at a constant
rate ("each backbone node generates client requests at a constant rate
that enter the platform through it", Section 6.1).  Generators default to
deterministic even spacing — the paper's load-bound analysis assumes
evenly spaced requests — with a random phase per gateway so the 53
generators do not fire in lock-step; Poisson arrivals are available for
robustness experiments.
"""

from __future__ import annotations

import abc
import random
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from repro.errors import WorkloadError
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RngFactory
from repro.types import NodeId, ObjectId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


@lru_cache(maxsize=8)
def canonical_object_ids(num_objects: int) -> tuple[ObjectId, ...]:
    """One canonical ``int`` object per object id.

    Workload samplers produce fresh ``int`` boxes on every draw; mapping
    them through this table interns them so the hot
    ``submit_request → choose_replica → host`` path hashes/compares one
    shared object per id (dict lookups short-circuit on identity) and the
    millions of queued event-argument tuples reference rather than
    duplicate them.  Pure value mapping — RNG draw order and sampled
    values are untouched.
    """
    return tuple(range(num_objects))


class Workload(abc.ABC):
    """A distribution over objects, possibly conditioned on the gateway."""

    def __init__(self, num_objects: int) -> None:
        if num_objects < 1:
            raise WorkloadError("a workload needs at least one object")
        self.num_objects = num_objects

    @abc.abstractmethod
    def sample(self, gateway: NodeId, rng: random.Random) -> ObjectId:
        """Draw the object requested by a client behind ``gateway``."""

    def sample_many(
        self, gateway: NodeId, rng: random.Random, count: int
    ) -> list[ObjectId]:
        """Draw ``count`` objects for ``gateway`` in one call.

        Must return exactly what ``count`` consecutive :meth:`sample`
        calls would, leaving ``rng`` in the same state; this default is
        that loop.  Workloads override it only to hoist per-draw work.
        """
        sample = self.sample
        return [sample(gateway, rng) for _ in range(count)]

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Workload").lower()


class UniformWorkload(Workload):
    """Every object equally likely — the no-structure control workload."""

    def sample(self, gateway: NodeId, rng: random.Random) -> ObjectId:
        return rng.randrange(self.num_objects)


#: Arrivals pre-drawn per fill.  The window is derived from it
#: (``ARRIVALS_PER_FILL / rate`` seconds), so the arrivals a generator
#: holds in the event queue are bounded whatever its rate: a wider window
#: (one measurement interval, say) only parks more entries in the queue.
ARRIVALS_PER_FILL = 32


class RequestGenerator:
    """Constant-rate request stream for one gateway node.

    Arrivals are pre-drawn one window at a time as plain vectors and
    handed to :meth:`~repro.sim.engine.Simulator.post_batch`: one refill
    event per window instead of one scheduler event per request.  The
    RNG stream is consumed in per-arrival order (the gap to the *next*
    arrival, then the *current* arrival's object; evenly spaced windows
    draw no gaps, so one :meth:`Workload.sample_many` call takes all of
    their objects), so times and objects
    are those of a generator that schedules one event per request
    (``tests/workloads/per_event_oracle.py`` is that generator, kept as
    the oracle).  Arrivals get their sequence numbers at fill time; only
    a tie at the exact same float timestamp could order differently, and
    the random per-gateway phase makes such ties measure-zero.

    Nothing is drawn at construction beyond the phase: the first fill is
    itself an event at the construction instant, so building a scenario
    stays cheap and the fill sees the system as it is when the run starts.
    """

    __slots__ = (
        "_sim",
        "_system",
        "_workload",
        "gateway",
        "rate",
        "_rng",
        "_poisson",
        "_window",
        "_next_time",
        "_refill_event",
        "generated",
        "_objects",
    )

    def __init__(
        self,
        sim: Simulator,
        system: "HostingSystem",
        workload: Workload,
        gateway: NodeId,
        rate: float,
        rng: random.Random,
        *,
        poisson: bool = False,
    ) -> None:
        if rate <= 0:
            raise WorkloadError(f"request rate must be positive, got {rate}")
        if workload.num_objects > system.num_objects:
            raise WorkloadError(
                "workload namespace larger than the system's: "
                f"{workload.num_objects} > {system.num_objects}"
            )
        self._sim = sim
        self._system = system
        self._workload = workload
        self.gateway = gateway
        self.rate = rate
        self._rng = rng
        self._poisson = poisson
        self._window = ARRIVALS_PER_FILL / rate
        #: Arrivals *scheduled* so far; up to one window ahead of the
        #: arrivals that have fired.
        self.generated = 0
        self._objects = canonical_object_ids(workload.num_objects)
        # Random phase so generators across gateways do not fire in sync.
        self._next_time = sim.now + rng.random() / rate
        self._refill_event: Event | None = sim.schedule_after(0.0, self._fill)

    def _fill(self) -> None:
        """Pre-draw and schedule every arrival in the next window."""
        sim = self._sim
        end = sim.now + self._window
        t = self._next_time
        times: list[Time] = []
        append_time = times.append
        rng = self._rng
        gateway = self.gateway
        if self._poisson:
            drawn: list[ObjectId] = []
            append_drawn = drawn.append
            sample = self._workload.sample
            expovariate = rng.expovariate
            rate = self.rate
            while t < end:
                # Per-arrival draw order: the gap to the next arrival
                # first, then this arrival's object.
                nxt = t + expovariate(rate)
                append_time(t)
                append_drawn(sample(gateway, rng))
                t = nxt
        else:
            # Even spacing draws no gaps, so the window's objects are
            # consecutive draws: one call takes them all.
            step = 1.0 / self.rate
            while t < end:
                append_time(t)
                t += step
            drawn = self._workload.sample_many(gateway, rng, len(times))
        self._next_time = t
        if times:
            objects = self._objects
            sim.post_batch(
                times,
                self._system.submit_request,
                [(gateway, objects[obj]) for obj in drawn],
            )
            self.generated += len(times)
        self._refill_event = sim.schedule_after(self._window, self._fill)

    def stop(self) -> None:
        """Stop pre-drawing new windows.  Idempotent.

        Arrivals already scheduled (up to one window ahead) cannot be
        recalled: they fire if the simulation keeps running.
        """
        if self._refill_event is not None:
            self._refill_event.cancel()
            self._refill_event = None


def attach_generators(
    sim: Simulator,
    system: "HostingSystem",
    workload: Workload,
    rate: float,
    rng_factory: RngFactory,
    *,
    gateways: Sequence[NodeId] | None = None,
    poisson: bool = False,
) -> list[RequestGenerator]:
    """One generator per gateway (default: every backbone node)."""
    nodes = (
        list(gateways)
        if gateways is not None
        else list(system.routes.topology.nodes)
    )
    return [
        RequestGenerator(
            sim,
            system,
            workload,
            node,
            rate,
            rng_factory.stream(f"gen-{node}"),
            poisson=poisson,
        )
        for node in nodes
    ]
