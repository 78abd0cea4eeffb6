"""A live redirector shard: ChooseReplica over HTTP plus the control plane.

One :class:`LiveRedirector` owns a consistent-hash partition of the
object namespace (DESIGN §10).  It wraps the *unchanged*
:class:`~repro.core.redirector.RedirectorService` (Figure 2 and the
replica-set registry) — restricted to the objects its ring partition
owns — and the :class:`~repro.core.load_board.LoadReportBoard` behind
HTTP endpoints:

* ``GET /route?obj=&gateway=`` — run ChooseReplica, answer with the
  chosen host's URL (the live analogue of the simulator handing a
  request straight to the chosen host);
* ``POST /control/replica_created|affinity_reduced|request_drop`` — the
  registry notices and drop arbitration of Section 4.2.1;
* ``POST /control/load_report`` / ``GET /control/offload_candidates`` —
  the load board feeding Offload recipient discovery.

Sharding changes three things relative to the PR-4 single redirector:

**Ownership and forwarding.**  Every conversation keyed by an object id
is decided at the object's owning shard.  A request that lands on the
wrong shard — a host was configured with one endpoint, the gateway's
view was stale — is transparently forwarded to the owner over the
pooled async client, so registry updates reach the owner *regardless of
which endpoint the sender contacted*.  With ``num_shards == 1`` the
ring owns everything and no forward ever fires: the PR-4 behaviour is
preserved exactly.

**Idempotent registry mutations.**  Clients stamp every registry
mutation with a ``msg_id``; the owner runs it through a
:class:`~repro.network.rpc.DedupCache` (the same idempotent-receive
discipline the simulator's RPC layer applies), so a retried or
re-forwarded ``replica_created`` is applied exactly once and the
duplicate gets the original reply.

**Backpressure.**  Control-plane POSTs pass a token-bucket +
bounded-in-flight gate; rejected requests get ``429`` with a fractional
``Retry-After`` that clients honour, so a flooded shard sheds control
load cheaply while its data plane keeps answering.

Load reports are stamped with the *shard's* clock on receipt, not the
sender's, and are broadcast to every peer shard (best-effort, marked
``forwarded`` to stop loops): the offload board is a deployment-wide
directory, so any shard must be able to answer
``offload_candidates``.
"""

from __future__ import annotations

import json
from collections.abc import Awaitable

from repro.core.load_board import LoadReportBoard, expiry_from_protocol
from repro.core.redirector import RedirectorService
from repro.core.runtime import Clock
from repro.errors import ProtocolError
from repro.network.rpc import DedupCache
from repro.obs.tracer import ProtocolTracer
from repro.routing.routes_db import RoutingDatabase

from repro.live.config import LiveConfig, PeerDirectory
from repro.live.httpd import (
    HttpServer,
    Request,
    Response,
    Router,
    error_response,
    json_response,
    throttle_response,
)
from repro.live.pool import TransportError
from repro.live.tier import TierMember


class LiveRedirector(TierMember):
    """One redirector shard process for a live deployment."""

    def __init__(
        self,
        config: LiveConfig,
        routes: RoutingDatabase,
        clock: Clock,
        directory: PeerDirectory,
        *,
        shard: int = 0,
        tracer: ProtocolTracer | None = None,
    ) -> None:
        super().__init__(config, directory)
        self.clock = clock
        self.shard = shard
        # The paper's evaluation places the (single) redirector at the
        # node with minimum mean distance; its node id only labels the
        # service here, the process listens on its own port.
        self.service = RedirectorService(
            routes.min_mean_distance_node(),
            routes,
            distribution_constant=config.protocol.distribution_constant,
        )
        self.service.tracer = tracer
        self.board = LoadReportBoard(expiry=expiry_from_protocol(config.protocol))
        self.owned_objects = self.ring.owned_by(shard, range(config.num_objects))
        for obj in self.owned_objects:
            self.service.register_initial(obj, config.initial_host(obj))
        #: Requests routed, for the metrics snapshot.
        self.routed_total = 0
        self.unroutable_total = 0
        #: Requests this shard relayed to the owning shard.
        self.forwarded_total = 0
        #: Registry mutations recognised as retries and answered from
        #: the dedup cache without re-applying.
        self.deduplicated_total = 0
        self.dedup = DedupCache()
        bind_host, port = config.shard_address(shard)
        self.server = HttpServer(self._build_router(), host=bind_host, port=port)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------

    def owns(self, obj: int) -> bool:
        return self.ring.owner(obj) == self.shard

    async def _to_owner(self, obj: int, request: Request) -> Response:
        """Relay a mis-addressed conversation to the owning shard."""
        owner = self.ring.owner(obj)
        self.forwarded_total += self.directory.knows_shard(owner)
        return await self._forward(owner, request)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/route", self._route)
        router.add("POST", "/control/replica_created", self._replica_created)
        router.add("POST", "/control/affinity_reduced", self._affinity_reduced)
        router.add("POST", "/control/request_drop", self._request_drop)
        router.add("POST", "/control/load_report", self._load_report)
        router.add("GET", "/control/offload_candidates", self._offload_candidates)
        router.add("POST", "/control/peers", self._peers)
        router.add("POST", "/admin/register_host", self._register_host)
        router.add("GET", "/admin/endpoints", self._endpoints)
        router.add("GET", "/metrics", self._metrics)
        router.add("GET", "/healthz", self._healthz)
        return router

    def _route(self, request: Request, params: dict) -> Response | Awaitable[Response]:
        try:
            obj = int(request.query["obj"])
            gateway = int(request.query.get("gateway", 0))
            exclude = (
                int(request.query["exclude"])
                if "exclude" in request.query
                else None
            )
        except (KeyError, ValueError):
            return error_response(400, "route needs integer obj= and gateway=")
        if not self.owns(obj):
            return self._to_owner(obj, request)
        if not self.service.knows(obj):
            return error_response(404, f"unknown object {obj}")
        server = self.service.choose_replica(gateway, obj, exclude=exclude)
        if server is None:
            self.unroutable_total += 1
            return error_response(503, f"no available replica of {obj}")
        self.routed_total += 1
        host, port = self.directory.host(server)
        return json_response(
            {
                "server": server,
                "url": f"http://{host}:{port}/obj/{obj}?gateway={gateway}",
            }
        )

    # -- registry mutations (gated, owner-forwarded, deduplicated) ------

    async def _registry_mutation(self, request: Request, apply) -> Response:
        """The shared wrapper for object-keyed control mutations.

        Gate (backpressure) → ownership (forward to the owner) → dedup
        (answer retries from cache) → apply.  ``apply`` runs only at the
        owning shard, exactly once per ``msg_id``.
        """
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        try:
            payload = request.json()
            try:
                obj = int(payload["obj"])
            except (KeyError, ValueError):
                return error_response(400, "control mutation needs integer obj")
            if not self.owns(obj):
                return await self._to_owner(obj, request)
            msg_id = payload.get("msg_id")
            if msg_id is not None:
                cached = self.dedup.get(msg_id)
                if cached is not None:
                    self.deduplicated_total += 1
                    return json_response(cached)
            response = apply(payload)
            if msg_id is not None and response.status < 500:
                self.dedup.put(msg_id, json.loads(response.body))
            return response
        finally:
            self.control_gate.release()

    async def _replica_created(self, request: Request, params: dict) -> Response:
        def apply(payload: dict) -> Response:
            try:
                self.service.replica_created(
                    int(payload["obj"]), int(payload["host"]), int(payload["affinity"])
                )
            except (KeyError, ValueError):
                return error_response(400, "replica_created needs obj, host, affinity")
            except ProtocolError as exc:
                return error_response(409, str(exc))
            return json_response({"ok": True})

        return await self._registry_mutation(request, apply)

    async def _affinity_reduced(self, request: Request, params: dict) -> Response:
        def apply(payload: dict) -> Response:
            try:
                self.service.affinity_reduced(
                    int(payload["obj"]), int(payload["host"]), int(payload["affinity"])
                )
            except (KeyError, ValueError):
                return error_response(400, "affinity_reduced needs obj, host, affinity")
            except ProtocolError as exc:
                return error_response(409, str(exc))
            return json_response({"ok": True})

        return await self._registry_mutation(request, apply)

    async def _request_drop(self, request: Request, params: dict) -> Response:
        def apply(payload: dict) -> Response:
            try:
                approved = self.service.request_drop(
                    int(payload["obj"]), int(payload["host"])
                )
            except (KeyError, ValueError):
                return error_response(400, "request_drop needs obj and host")
            except ProtocolError as exc:
                return error_response(409, str(exc))
            return json_response({"approved": approved})

        return await self._registry_mutation(request, apply)

    # -- load board (gated, peer-broadcast) -----------------------------

    async def _load_report(self, request: Request, params: dict) -> Response:
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        try:
            payload = request.json()
            try:
                node = int(payload["node"])
                load = float(payload["load"])
            except (KeyError, ValueError):
                return error_response(400, "load_report needs node and load")
            self.board.report(node, load, self.clock.now)
            if not payload.get("forwarded") and self.config.num_shards > 1:
                await self._broadcast_load_report(node, load)
            return json_response({"ok": True})
        finally:
            self.control_gate.release()

    async def _broadcast_load_report(self, node: int, load: float) -> None:
        """Replicate a first-hand load report to every peer shard.

        Best-effort, like the simulator's oneway grade: a lost copy is
        superseded by next interval's report.  The ``forwarded`` flag
        stops a peer from re-broadcasting.
        """
        payload = {"node": node, "load": load, "forwarded": True}
        for peer, address in self.directory.shards().items():
            if peer == self.shard:
                continue
            try:
                await self.pool.request(
                    address, "POST", "/control/load_report", payload=payload,
                    timeout=2.0,
                )
            except TransportError:
                continue

    async def _offload_candidates(self, request: Request, params: dict) -> Response:
        try:
            exclude = int(request.query.get("exclude", -1))
        except ValueError:
            return error_response(400, "exclude must be an integer node id")
        candidates = self.board.candidates(
            exclude=exclude if exclude >= 0 else None, now=self.clock.now
        )
        entries = []
        for node, load in candidates:
            entry = {"node": node, "load": load}
            if self.directory.knows_host(node):
                entry["addr"] = list(self.directory.host(node))
            entries.append(entry)
        return json_response({"candidates": entries})

    # -- membership -----------------------------------------------------

    async def _register_host(self, request: Request, params: dict) -> Response:
        """A host announcing its bound address (single-shard front door;
        the gateway handles this for sharded tiers)."""
        payload = request.json()
        try:
            node = int(payload["node"])
            address = (str(payload["host"]), int(payload["port"]))
        except (KeyError, ValueError):
            return error_response(400, "register_host needs node, host, port")
        self.directory.set_host(node, address)
        return json_response({"ok": True})

    async def _endpoints(self, request: Request, params: dict) -> Response:
        payload = self.directory.peers_payload()
        payload.setdefault("shards", {})[str(self.shard)] = [
            self.server.host, self.server.port
        ]
        payload["num_shards"] = self.config.num_shards
        return json_response(payload)

    async def _metrics(self, request: Request, params: dict) -> Response:
        return json_response(self.snapshot())

    async def _healthz(self, request: Request, params: dict) -> Response:
        return json_response(
            {"ok": True, "role": "redirector", "shard": self.shard}
        )

    # ------------------------------------------------------------------
    # Lifecycle and metrics
    # ------------------------------------------------------------------

    async def start(self) -> int:
        port = await self.server.start()
        self.directory.set_shard(self.shard, (self.server.host, port))
        return port

    def snapshot(self) -> dict:
        service = self.service
        registry = {
            str(obj): {
                str(host): service.affinity(obj, host)
                for host in service.replica_hosts(obj)
            }
            for obj in self.owned_objects
        }
        return {
            "role": "redirector",
            "shard": self.shard,
            "num_shards": self.config.num_shards,
            "owned_objects": len(self.owned_objects),
            "registry": registry,
            "total_replicas": service.total_replicas(),
            "routed_total": self.routed_total,
            "unroutable_total": self.unroutable_total,
            "forwarded_total": self.forwarded_total,
            "deduplicated_total": self.deduplicated_total,
            "throttled_total": self.control_gate.rejected_total,
            "chose_closest": service.chose_closest,
            "chose_least_requested": service.chose_least_requested,
        }
