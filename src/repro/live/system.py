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
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.create_obj import apply_create_obj, decide_create_obj
from repro.core.host import HostServer
from repro.core.offload import MAX_RECIPIENT_PROBES, run_offload
from repro.core.placement import PlacementEngine
from repro.core.runtime import Clock
from repro.obs.records import CreateObjRecord
from repro.obs.tracer import ProtocolTracer
from repro.routing.routes_db import RoutingDatabase
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementEvent,
    PlacementReason,
    Time,
)

from repro.live.client import ControlPlane
from repro.live.pool import TransportError


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
        #: gateway's peers broadcast, which may still be in flight).
        self.advertised: tuple[str, int] | None = None
        self.engine = PlacementEngine(self)
        #: Replica-set changes this host initiated or accepted, exported
        #: with the live metrics.
        self.placement_events: list[PlacementEvent] = []

    # ------------------------------------------------------------------
    # SystemPort: the five control conversations
    # ------------------------------------------------------------------

    def create_obj(
        self,
        source: NodeId,
        candidate: NodeId,
        action: PlacementAction,
        obj: ObjectId,
        unit_load: float,
        reason: PlacementReason,
    ) -> bool:
        """Offer ``obj`` to ``candidate`` over HTTP (Figure 4, source side)."""
        payload = {
            "source": source,
            "obj": obj,
            "action": action.value,
            "reason": reason.value,
            "unit_load": unit_load,
        }
        if self.advertised is not None:
            payload["source_addr"] = list(self.advertised)
        try:
            reply = self.control.create_obj(candidate, payload)
        except TransportError:
            reply = {"accepted": False, "reason": "rpc-timeout"}
        accepted = bool(reply.get("accepted"))
        if self.tracer is not None:
            self.tracer.record(
                CreateObjRecord(
                    source=source,
                    candidate=candidate,
                    obj=obj,
                    action=action.value,
                    accepted=accepted,
                    reason=str(reply.get("reason", "unknown")),
                    unit_load=unit_load,
                    upper_load=float(reply.get("upper_load", 0.0)),
                    low_watermark=float(reply.get("low_watermark", 0.0)),
                    high_watermark=float(reply.get("high_watermark", 0.0)),
                )
            )
        # The accepting candidate records the placement event (it is the
        # one process that knows the copy really happened), so a
        # deployment-wide aggregation counts each move exactly once.
        return accepted

    def notify_affinity_reduced(
        self, node: NodeId, obj: ObjectId, new_affinity: int
    ) -> None:
        try:
            self.control.affinity_reduced(node, obj, new_affinity)
        except TransportError:
            # Notify grade: a lost report leaves the redirector with a
            # stale (higher) affinity, never an unsafe registry state.
            pass

    def request_drop(self, node: NodeId, obj: ObjectId) -> bool:
        try:
            reply = self.control.request_drop(node, obj)
        except TransportError:
            # Arbitration unreachable: conservatively keep the replica.
            return False
        return bool(reply.get("approved"))

    def probe_offload_recipient(
        self, source: NodeId, now: Time | None = None
    ) -> tuple[NodeId, float, float] | None:
        try:
            candidates = self.control.offload_candidates(exclude=source)
        except TransportError:
            return None
        probed = 0
        for entry in candidates:
            candidate = int(entry["node"])
            probed += 1
            if probed > MAX_RECIPIENT_PROBES:
                break
            # "The recipient responds to the requesting host with its
            # load value": the fresh probe, not the board report, seeds
            # the running upper-bound estimate.  The board entry may
            # carry the candidate's address (sharded deployments attach
            # it); fall back to the local directory otherwise.
            addr = entry.get("addr")
            try:
                reply = self.control.host_load(
                    candidate,
                    address=(str(addr[0]), int(addr[1])) if addr else None,
                )
            except TransportError:
                continue
            upper = float(reply.get("upper_load", 0.0))
            low_watermark = float(reply.get("low_watermark", 0.0))
            if reply.get("available", True) and upper < low_watermark:
                return candidate, upper, low_watermark
        return None

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

    def run_offload(self, host: HostServer, now: Time, elapsed: float) -> int:
        return run_offload(self, self.engine, host, now, elapsed)

    # ------------------------------------------------------------------
    # Candidate side of CreateObj (invoked by the HTTP handler)
    # ------------------------------------------------------------------

    def handle_create_obj(self, payload: dict) -> dict:
        """Decide a CreateObj offer against local state (Figure 4).

        Runs on a worker thread.  On acceptance the bytes are pulled from
        the source (the bulk copy) before local state changes, and the
        redirector registration happens before the accept is returned —
        the registry-subset invariant needs the copy to exist first and
        the source to only trust an accept that is already registered.
        """
        source = int(payload["source"])
        obj = int(payload["obj"])
        action = PlacementAction(payload["action"])
        unit_load = float(payload["unit_load"])
        host = self.host

        def refuse(reason: str) -> dict:
            return {
                "accepted": False,
                "reason": reason,
                "upper_load": host.upper_load,
                "low_watermark": host.low_watermark,
                "high_watermark": host.high_watermark,
            }

        refusal = decide_create_obj(host, action, obj, unit_load)
        if refusal is not None:
            return refuse(refusal)
        copied = 0
        if obj not in host.store:
            source_addr = payload.get("source_addr")
            try:
                data = self.control.fetch_object(
                    source,
                    obj,
                    address=(
                        (str(source_addr[0]), int(source_addr[1]))
                        if source_addr
                        else None
                    ),
                )
            except TransportError:
                return refuse("copy-failed")
            copied = len(data)
        affinity = apply_create_obj(host, obj, unit_load, self.clock.now)
        try:
            self.control.replica_created(self.node, obj, affinity)
        except TransportError:
            # Registration never landed: undo so no unregistered replica
            # lingers (it could never be dropped — the redirector would
            # reject arbitration for a replica it does not know).
            if affinity == 1:
                host.store.drop(obj)
                host.clear_object_state(obj)
            else:
                host.store.reduce(obj)
            return refuse("register-failed")
        self.record_placement(
            PlacementAction(payload["action"]),
            PlacementReason(payload["reason"]),
            obj,
            source=source,
            target=self.node,
            copied_bytes=copied,
        )
        return {
            "accepted": True,
            "reason": "accepted",
            "affinity": affinity,
            "copied_bytes": copied,
            "upper_load": host.upper_load,
            "low_watermark": host.low_watermark,
            "high_watermark": host.high_watermark,
        }

    # ------------------------------------------------------------------
    # Wall-clock protocol timers
    # ------------------------------------------------------------------

    def measurement_tick(self) -> float:
        """Fold the meter into the estimator and report to the board."""
        now = self.clock.now
        load = self.host.measure(now)
        try:
            self.control.load_report(self.node, load)
        except TransportError:
            pass  # next interval's report supersedes this one anyway
        return load

    def placement_tick(self) -> bool:
        """One DecidePlacement round (Figure 3) for this host."""
        return self.engine.run_host(self.node, self.clock.now)
