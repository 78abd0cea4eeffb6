"""The live runtime's :class:`~repro.core.runtime.SystemPort` implementation.

One :class:`LiveSystem` lives inside each replica host process and plugs
the unchanged decision logic — :class:`~repro.core.placement.PlacementEngine`,
:func:`~repro.core.offload.run_offload`,
:func:`~repro.core.create_obj.decide_create_obj` /
:func:`~repro.core.create_obj.apply_create_obj` — into the HTTP control
plane.  Where the simulated :class:`~repro.core.protocol.HostingSystem`
holds every host in one process and models message loss through the RPC
fault plane, the live system holds exactly one host and pays for its
conversations with real sockets; transport failures map onto the same
refusal reasons the simulator's fault plane produces (``rpc-timeout``),
so traces from both runtimes read identically.

Everything here runs on the host process's event loop: :meth:`drive`
awaits the answer to each message a protocol step yields, and the
CreateObj handler awaits its bulk copy and registration.  The one
off-loop entry is the pair of tick shims at the bottom.
"""

from __future__ import annotations

import asyncio
from typing import NamedTuple

from repro.core.config import ProtocolConfig
from repro.core.create_obj import apply_create_obj, decide_create_obj
from repro.core.host import HostServer
from repro.core.placement import PlacementEngine
from repro.core.runtime import (
    LOAD,
    AffinityReduced,
    Clock,
    CreateObj,
    LoadReport,
    ReadBoard,
    RequestDrop,
    Step,
    WireError,
    from_wire,
    to_wire,
)
from repro.errors import ConfigurationError
from repro.obs.records import CreateObjRecord
from repro.obs.tracer import ProtocolTracer
from repro.routing.routes_db import RoutingDatabase
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementEvent,
    PlacementReason,
)

from repro.live.client import ControlPlane
from repro.live.config import peer_address
from repro.live.pool import Address, TransportError


class _ProbedLoad(NamedTuple):
    """A load probe's answer; both loads are the codec's :data:`LOAD`."""

    WIRE = (("upper_load", "upper_load", LOAD), ("low_watermark", "low_watermark", LOAD))
    upper_load: float
    low_watermark: float


class LiveSystem:
    """Per-host protocol brain wired to the HTTP control plane."""

    def __init__(
        self,
        node: NodeId,
        host: HostServer,
        config: ProtocolConfig,
        routes: RoutingDatabase,
        clock: Clock,
        control: ControlPlane,
        *,
        tracer: ProtocolTracer | None = None,
    ) -> None:
        self.node = node
        self.host = host
        self.config = config
        self.routes = routes
        self.clock = clock
        self.control = control
        self.tracer = tracer
        #: SystemPort contract: the hosts this runtime owns.  A live host
        #: process owns exactly its own server; the engine only ever
        #: indexes the node it is running placement for.
        self.hosts: dict[NodeId, HostServer] = {node: host}
        #: This host's advertised ``(host, port)``, filled after bind.
        #: Travels inside CreateObj offers so the candidate can pull the
        #: bulk copy even when its own directory has no entry for the
        #: source yet (ephemeral-port deployments converge via the
        #: front door's peers broadcast, which may still be in flight).
        self.advertised: tuple[str, int] | None = None
        #: The wire limits of a peer's answer: ``(nodes, objects)``.
        self.limits = (routes.num_nodes, len(control.owners))
        self.engine = PlacementEngine(self)
        #: Replica-set changes this host initiated or accepted, exported
        #: with the live metrics.
        self.placement_events: list[PlacementEvent] = []
        #: The host's event loop, read only by the off-loop tick shims.
        self.loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # The drive loop: a protocol step's messages, answered over HTTP
    # ------------------------------------------------------------------

    async def drive(self, step: Step):
        """Run a protocol step to completion on this loop; return its result."""
        answer = None
        while True:
            try:
                message = step.send(answer)
            except StopIteration as done:
                return done.value
            kind = type(message)
            if kind is CreateObj:
                answer = await self._create_obj(message)
            elif kind is AffinityReduced:
                answer = None
                try:
                    await self.control.mutate(message)
                except TransportError:
                    # Notify grade: a lost report leaves the redirector with a
                    # stale (higher) affinity, never an unsafe registry state.
                    pass
            elif kind is RequestDrop:
                answer = await self._request_drop(message)
            elif kind is ReadBoard:
                answer = await self._read_board(message.source)
            else:  # ProbeLoad
                answer = await self._probe_load(message.candidate)

    async def _create_obj(self, offer: CreateObj) -> bool:
        """Offer the object to the candidate (Figure 4, source side)."""
        payload = to_wire(offer)
        if self.advertised is not None:
            payload["source_addr"] = list(self.advertised)
        try:
            reply = await self.control.create_obj(offer.candidate, payload)
        except TransportError:
            reply = {"accepted": False, "reason": "rpc-timeout"}
        accepted = bool(reply.get("accepted"))
        if self.tracer is not None:
            self.tracer.record(
                CreateObjRecord(
                    source=offer.source,
                    candidate=offer.candidate,
                    obj=offer.obj,
                    action=offer.action.value,
                    accepted=accepted,
                    reason=str(reply.get("reason", "unknown")),
                    unit_load=offer.unit_load,
                    upper_load=float(reply.get("upper_load", 0.0)),
                    low_watermark=float(reply.get("low_watermark", 0.0)),
                    high_watermark=float(reply.get("high_watermark", 0.0)),
                )
            )
        # The accepting candidate records the placement event (it is the
        # one process that knows the copy really happened), so a
        # deployment-wide aggregation counts each move exactly once.
        return accepted

    async def _request_drop(self, request: RequestDrop) -> list[bool]:
        """Arbitrate a run: one conversation per owning shard, each
        keeping the run's order; an object outside the owner table goes
        alone, to the front door."""
        owners = self.control.owners
        groups: dict[object, list[ObjectId]] = {}
        for obj in request.objs:
            key = owners[obj] if obj < len(owners) else (None, obj)
            groups.setdefault(key, []).append(obj)
        approved: dict[ObjectId, bool] = {}
        for objs in groups.values():
            try:
                answers = await self.control.request_drop(request.node, objs)
            except TransportError:
                # Arbitration unreachable: conservatively keep every
                # replica the conversation asked about.
                answers = [False] * len(objs)
            approved.update(zip(objs, answers))
        return [approved[obj] for obj in request.objs]

    async def _read_board(self, source: NodeId) -> list[tuple[NodeId, float, float]]:
        """The board, each report judged against this host's ``lw`` (every
        live host runs ``config`` at weight 1).  An entry's ``addr`` enters
        the peer directory; an unreachable or malformed board reads as empty."""
        try:
            entries = await self.control.offload_candidates(exclude=source)
            reports = [from_wire(LoadReport, entry, self.limits) for entry in entries]
            addresses = [(entry["node"], peer_address(entry["addr"], "candidate addr"))
                         for entry in entries if entry.get("addr") is not None]
        except (TransportError, WireError, ConfigurationError):
            return []
        for node, address in addresses:
            self.control.directory.set_host(node, address)
        low_watermark = self.host.low_watermark
        return [(report.node, report.load, low_watermark) for report in reports]

    async def _probe_load(self, candidate: NodeId) -> _ProbedLoad | None:
        """``candidate``'s loads; ``None`` if unreachable, unavailable or malformed."""
        try:
            reply = await self.control.host_load(candidate)
            load = from_wire(_ProbedLoad, reply, self.limits)
        except (TransportError, WireError):
            return None
        return load if reply.get("available") is True else None

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
        self.placement_events.append(
            PlacementEvent(
                time=self.clock.now,
                action=action,
                reason=reason,
                obj=obj,
                source=source,
                target=target,
                copied_bytes=copied_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Candidate side of CreateObj (awaited by the HTTP handler)
    # ------------------------------------------------------------------

    async def handle_create_obj(
        self, offer: CreateObj, source_addr: Address | None = None
    ) -> dict:
        """Decide a validated CreateObj offer against local state (Figure 4).

        On acceptance the bytes are pulled from the source (the bulk
        copy, from ``source_addr`` when the offer carried one) before
        local state changes, and the redirector registration happens
        before the accept is returned — the registry-subset invariant
        needs the copy to exist first and the source to only trust an
        accept that is already registered.
        """
        obj = offer.obj
        host = self.host

        def answer(reason: str, **accepted) -> dict:
            return {
                "accepted": reason == "accepted",
                "reason": reason,
                **accepted,
                "upper_load": host.upper_load,
                "low_watermark": host.low_watermark,
                "high_watermark": host.high_watermark,
            }

        refusal = decide_create_obj(host, offer.action, obj, offer.unit_load)
        if refusal is not None:
            return answer(refusal)
        copied = 0
        if obj not in host.store:
            try:
                data = await self.control.fetch_object(
                    offer.source, obj, address=source_addr
                )
            except TransportError:
                return answer("copy-failed")
            copied = len(data)
        affinity = apply_create_obj(host, obj, offer.unit_load, self.clock.now)
        try:
            await self.control.replica_created(self.node, obj, affinity)
        except TransportError:
            # Registration never landed: undo so no unregistered replica
            # lingers (it could never be dropped — the redirector would
            # reject arbitration for a replica it does not know).
            if affinity == 1:
                host.store.drop(obj)
                host.clear_object_state(obj)
            else:
                host.store.reduce(obj)
            return answer("register-failed")
        self.record_placement(
            offer.action,
            offer.reason,
            obj,
            source=offer.source,
            target=self.node,
            copied_bytes=copied,
        )
        return answer("accepted", affinity=affinity, copied_bytes=copied)

    # ------------------------------------------------------------------
    # The wall-clock protocol rounds
    # ------------------------------------------------------------------

    async def measurement_round(self) -> float:
        """Fold the meter into the estimator and report to the board."""
        load = self.host.measure(self.clock.now)
        try:
            await self.control.load_report(self.node, load)
        except TransportError:
            pass  # next interval's report supersedes this one anyway
        return load

    async def placement_round(self) -> bool:
        """One DecidePlacement round (Figure 3) for this host."""
        return await self.drive(self.engine.run_host(self.node, self.clock.now))

    # ------------------------------------------------------------------
    # The off-loop tick shims, the one sanctioned thread crossing.
    # ``bench/liveplane.py`` calls them through ``asyncio.to_thread``;
    # the benchmark change that awaits the rounds instead deletes them
    # and ``loop``.  Called on the loop itself they would deadlock.
    # ------------------------------------------------------------------

    def measurement_tick(self) -> float:
        """Off-loop shim: run :meth:`measurement_round` on ``loop``."""
        return self._run_on_loop(self.measurement_round())

    def placement_tick(self) -> bool:
        """Off-loop shim: run :meth:`placement_round` on ``loop``."""
        return self._run_on_loop(self.placement_round())

    def _run_on_loop(self, round_):
        """Hand ``round_`` to the host's loop; block this thread until it ends."""
        return asyncio.run_coroutine_threadsafe(round_, self.loop).result()
