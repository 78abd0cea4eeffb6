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
  registry notices and drop arbitration of Section 4.2.1 (one drop
  request judges a run of objects the same shard owns, in order);
* ``POST /control/load_report`` / ``GET /control/offload_candidates`` —
  the load board feeding Offload recipient discovery;
* ``POST /admin/register_shard|register_host`` and ``/control/peers`` —
  membership on ephemeral ports.

Every deployment has one shape: shard 0 is the front door that clients
and registering processes contact, and any further shards sit beside it.

**Ownership and relay.**  Every conversation keyed by an object id is
decided at the object's owning shard.  Senders that know the ring (the
hosts' control planes) address the owner directly; one that lands
elsewhere — at the front door, or at a shard a stale sender picked — is
relayed to the owner over the pooled keep-alive client, so registry
updates reach the owner *regardless of which endpoint the sender
contacted*.  With one shard the ring owns everything and no relay ever
fires.  Ownership is read from the ring's owner table
(:meth:`~repro.routing.hashring.HashRing.owners`), built once per process.

**Idempotent registry mutations.**  Clients stamp every registry
mutation with a ``msg_id``; the owner runs it through a
:class:`~repro.network.rpc.DedupCache` (the same idempotent-receive
discipline the simulator's RPC layer applies), so a retried or
re-relayed ``replica_created`` is applied exactly once and the
duplicate gets the original reply, status included.  An owned mutation
is answered in the callback that framed it; a relay, in the one framing the owner's reply.

**Backpressure.**  Control-plane POSTs pass a token-bucket +
bounded-in-flight gate; rejected requests get ``429`` with a fractional
``Retry-After`` that clients honour, so a flooded shard sheds control
load cheaply while its data plane keeps answering.

**Broadcasts.**  Load reports are stamped with the *receiving* shard's
clock, not the sender's, and re-announced to every peer shard
(best-effort, marked ``forwarded`` to stop loops): the offload board is
a deployment-wide directory, so any shard answers
``offload_candidates``.  A registration re-announces the merged address
book the same way, so shards that joined at the front door learn every
host.

Every body field is checked before anything uses it (a control message's by
``from_wire``): a bad one is a 400 naming it, with nothing relayed, counted or applied.
"""

from __future__ import annotations

from functools import partial

from repro.core.load_board import LoadReportBoard, expiry_from_protocol
from repro.core.redirector import RedirectorService
from repro.core.runtime import (
    AffinityReduced,
    Clock,
    LoadReport,
    ReplicaCreated,
    RequestDrop,
    from_wire,
    to_wire,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.network.rpc import DedupCache
from repro.obs.tracer import ProtocolTracer
from repro.routing.hashring import HashRing
from repro.routing.routes_db import RoutingDatabase

from repro.live.backpressure import Backpressure
from repro.live.client import MUTATIONS
from repro.live.config import LiveConfig, PeerDirectory, peer_address
from repro.live.httpd import (
    Answer,
    BadRequest,
    HttpServer,
    Request,
    Response,
    Router,
    error_response,
    json_response,
    throttle_response,
)
from repro.live.pool import HttpPool, TransportError


class LiveRedirector:
    """One redirector shard process for a live deployment."""

    def __init__(
        self,
        config: LiveConfig,
        routes: RoutingDatabase,
        clock: Clock,
        directory: PeerDirectory,
        *,
        shard: int = 0,
        ring: HashRing,
        tracer: ProtocolTracer | None = None,
    ) -> None:
        self.config = config
        self.directory = directory
        self.clock = clock
        self.shard = shard
        #: ``owners[obj]`` is the shard owning object ``obj``.
        self.owners = ring.owners(config.num_objects)
        #: The wire limits of a control body: ``(nodes, objects)``.
        self.limits = (config.num_hosts, config.num_objects)
        self.pool = HttpPool(timeout=5.0)
        self.control_gate = Backpressure(
            rate=config.control_rate_limit,
            burst=config.control_burst,
            max_inflight=config.control_max_inflight,
        )
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
        self.owned_objects = [
            obj for obj, owner in enumerate(self.owners) if owner == shard
        ]
        for obj in self.owned_objects:
            self.service.register_initial(obj, config.initial_host(obj))
        #: Requests routed, for the metrics snapshot.
        self.routed_total = 0
        self.unroutable_total = 0
        #: Conversations this shard relayed to the owning shard ...
        self.forwarded_total = 0
        #: ... of which registry mutations (the rest are routes).
        self.forwarded_control_total = 0
        #: Registry mutations this shard decided as the owner (applied
        #: or refused), and those recognised as retries and answered
        #: from the dedup cache without re-applying.
        self.mutations_total = 0
        self.deduplicated_total = 0
        #: The ``request_drop`` conversations among those mutations
        #: judged, and the objects they judged (each carries a run).
        self.drop_conversations_total = 0
        self.drops_arbitrated_total = 0
        self.dedup = DedupCache()
        bind_host, port = config.shard_address(shard)
        self.server = HttpServer(self._build_router(), host=bind_host, port=port)

    # ------------------------------------------------------------------
    # Ownership and relay
    # ------------------------------------------------------------------

    def _to_owner(self, obj: int, request: Request, mutation: bool = False) -> Answer:
        """Relay a conversation about ``obj`` to the owning shard.

        The status, body, content type and a 429's ``Retry-After`` are
        the owner's; 503 (answered at once) before it has registered,
        502 when the exchange fails.  A relayed registry ``mutation`` is
        counted as one, and its answer releases the control gate.
        """
        owner = self.owners[obj]
        if not self.directory.knows_shard(owner):
            return error_response(503, f"shard {owner} not registered yet")
        self.forwarded_total += 1
        self.forwarded_control_total += mutation
        return partial(self._relay, owner, request, mutation)

    def _relay(self, owner: int, request: Request, mutation: bool, respond) -> None:
        """Answer from the callback that frames the owner's reply on a parked
        connection; with none parked, or a stale one, from one Task."""
        pool, address = self.pool, self.directory.shard(owner)
        method, target, body = request.method, request.target, request.body or None

        def answer(outcome: tuple | TransportError) -> Response:
            if mutation:
                self.control_gate.release()
            if isinstance(outcome, TransportError):
                return error_response(502, f"shard {owner} unreachable: {outcome}")
            status, headers, data = outcome
            response = Response(status, data, headers.get("content-type", "application/json"))
            if "retry-after" in headers:
                response.headers["Retry-After"] = headers["retry-after"]
            return response

        async def dialled() -> Response:
            try:
                return answer(await pool.request(address, method, target, body=body))
            except TransportError as exc:
                return answer(exc)

        def settled() -> None:
            try:
                outcome = pool.complete(address, connection, method, target)
            except TransportError as exc:
                outcome = exc
            respond(dialled() if outcome is None else answer(outcome))  # None: stale

        connection = pool.start(address, method, target, None, body, pool.timeout, settled)
        if connection is None:
            respond(dialled())

    async def _tell_peers(self, path: str, payload: dict) -> None:
        """Post ``payload`` to every other registered shard.

        Best-effort, like the simulator's oneway grade: a lost load
        report is superseded by next interval's, a lost address book by
        the next registration (and hosts re-pull it on a miss).
        """
        for peer, address in self.directory.shards().items():
            if peer == self.shard:
                continue
            try:
                await self.pool.request(
                    address, "POST", path, payload=payload, timeout=2.0
                )
            except TransportError:
                continue

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/route", self._route)
        for message, (path, _persistent) in MUTATIONS.items():
            router.add("POST", path, partial(self._mutation, message))
        router.add("POST", "/control/load_report", self._load_report)
        router.add("GET", "/control/offload_candidates", self._offload_candidates)
        router.add("POST", "/control/peers", self._peers)
        config, directory = self.config, self.directory
        for path, role, limit, enter in (
            ("/admin/register_shard", "shard", config.num_shards, directory.set_shard),
            ("/admin/register_host", "node", config.num_hosts, directory.set_host),
        ):
            router.add("POST", path, partial(self._register, role, limit, enter))
        router.add("GET", "/admin/endpoints", self._endpoints)
        router.add("GET", "/metrics", self._metrics)
        router.add("GET", "/healthz", self._healthz)
        return router

    def _route(self, request: Request, params: dict) -> Answer:
        try:
            obj = int(request.query["obj"])
            exclude = (
                int(request.query["exclude"])
                if "exclude" in request.query
                else None
            )
        except (KeyError, ValueError):
            return error_response(400, "route needs integer obj=")
        # The gateway id indexes a distance row: reject a bad one before
        # it is relayed, counted or looked up.
        raw_gateway = request.query.get("gateway", "0")
        hosts = self.config.num_hosts
        if not (raw_gateway.isdecimal() and int(raw_gateway) < hosts):
            return error_response(
                400, f"gateway must be a node id in [0, {hosts}), got {raw_gateway!r}"
            )
        gateway = int(raw_gateway)
        if not 0 <= obj < len(self.owners):
            return error_response(404, f"unknown object {obj}")
        if self.owners[obj] != self.shard:
            return self._to_owner(obj, request)
        if not self.service.knows(obj):
            return error_response(404, f"unknown object {obj}")
        server = self.service.choose_replica(gateway, obj, exclude=exclude)
        if server is None:
            self.unroutable_total += 1
            return error_response(503, f"no available replica of {obj}")
        try:
            host, port = self.directory.host(server)
        except ConfigurationError:  # chosen before the host registered
            self.unroutable_total += 1
            return error_response(503, f"host {server} not registered yet")
        self.routed_total += 1
        return json_response(
            {
                "server": server,
                "url": f"http://{host}:{port}/obj/{obj}?gateway={gateway}",
            }
        )

    # -- registry mutations (gated, owner-relayed, deduplicated) --------

    def _mutation(self, cls: type, request: Request, params: dict) -> Answer:
        """A registry mutation ``cls`` (one of :data:`MUTATIONS`).

        Gate (backpressure) → decode the body → ownership (relay to the
        owner) → dedup (replay a retry's first answer) → :meth:`_apply`,
        which runs only at the owning shard, exactly once per ``msg_id``.
        Everything but a relay is answered inline; the gate is released
        when the answer is in hand, on either path.
        """
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        relaying = False
        try:
            payload = request.json()
            message = from_wire(cls, payload, self.limits)
            owners = self.owners
            objs = message.objs if cls is RequestDrop else (message.obj,)
            obj = objs[0]
            if any(owners[other] != owners[obj] for other in objs):
                raise BadRequest(f"objs spans more than one shard: {list(objs)!r}")
            if owners[obj] != self.shard:
                answer = self._to_owner(obj, request, mutation=True)
                relaying = not isinstance(answer, Response)
                return answer
            msg_id = payload.get("msg_id")
            if msg_id is not None:
                cached = self.dedup.get(msg_id)
                if cached is not None:
                    self.deduplicated_total += 1
                    return cached
            self.mutations_total += 1
            try:
                response = json_response(self._apply(message))
            except ProtocolError as exc:
                response = error_response(409, str(exc))
            if msg_id is not None:
                self.dedup.put(msg_id, response)
            return response
        finally:
            if not relaying:
                self.control_gate.release()

    def _apply(self, message: ReplicaCreated | AffinityReduced | RequestDrop) -> dict:
        """Apply an owned mutation to the registry.  A drop request judges
        each of its objects in order — or none, unless the host holds
        every one of them."""
        service, host = self.service, message.node
        if type(message) is ReplicaCreated:
            service.replica_created(message.obj, host, message.affinity)
        elif type(message) is AffinityReduced:
            service.affinity_reduced(message.obj, host, message.affinity)
        else:
            for obj in message.objs:
                if host not in service.replica_hosts(obj):
                    raise ProtocolError(f"host {host} holds no replica of {obj}")
            self.drop_conversations_total += 1
            self.drops_arbitrated_total += len(message.objs)
            return {"approved": [service.request_drop(obj, host) for obj in message.objs]}
        return {"ok": True}

    # -- load board (gated, peer-broadcast) -----------------------------

    def _load_report(self, request: Request, params: dict) -> Answer:
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        broadcasting = False
        try:
            payload = request.json()
            report = from_wire(LoadReport, payload, self.limits)
            self.board.report(report.node, report.load, self.clock.now)
            broadcasting = not payload.get("forwarded")  # a peer's copy is answered inline
            return self._broadcast_load(report) if broadcasting else json_response({"ok": True})
        finally:
            if not broadcasting:
                self.control_gate.release()

    async def _broadcast_load(self, report: LoadReport) -> Response:
        """Re-announce a load report to every peer shard, then release the gate."""
        try:
            await self._tell_peers("/control/load_report", {**to_wire(report), "forwarded": True})
        finally:
            self.control_gate.release()
        return json_response({"ok": True})

    def _offload_candidates(self, request: Request, params: dict) -> Response:
        try:
            exclude = int(request.query.get("exclude", -1))
        except ValueError:
            return error_response(400, "exclude must be an integer node id")
        candidates = self.board.candidates(
            exclude=exclude if exclude >= 0 else None, now=self.clock.now
        )
        entries = []
        for node, load in candidates:
            entry = to_wire(LoadReport(node, load))
            if self.directory.knows_host(node):
                entry["addr"] = list(self.directory.host(node))
            entries.append(entry)
        return json_response({"candidates": entries})

    # -- membership -----------------------------------------------------

    async def _register(
        self, role: str, limit: int, enter, request: Request, params: dict
    ) -> Response:
        """A shard or a host announcing its bound address at the front door:
        ``payload[role]`` is its id, below ``limit``, and ``enter`` books it."""
        payload = request.json()
        index = payload.get(role)
        if type(index) is not int or not 0 <= index < limit:
            raise BadRequest(f"{role} must be an integer in [0, {limit}), got {index!r}")
        try:
            address = peer_address(
                [payload.get("host"), payload.get("port")], "registered host and port"
            )
        except ConfigurationError as exc:
            raise BadRequest(str(exc)) from None
        enter(index, address)
        await self._tell_peers("/control/peers", self.directory.peers_payload())
        return json_response({"ok": True})

    def _peers(self, request: Request, params: dict) -> Response:
        """The front door's address book, re-announced after a registration."""
        try:
            self.directory.apply_peers(request.json())
        except ConfigurationError as exc:
            raise BadRequest(str(exc)) from None
        return json_response({"ok": True})

    def _endpoints(self, request: Request, params: dict) -> Response:
        payload = self.directory.peers_payload()
        payload["num_shards"] = self.config.num_shards
        return json_response(payload)

    def _metrics(self, request: Request, params: dict) -> Response:
        return json_response(self.snapshot())

    def _healthz(self, request: Request, params: dict) -> Response:
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

    async def stop(self) -> None:
        await self.server.stop()
        await self.pool.close()

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
            "forwarded_control_total": self.forwarded_control_total,
            "mutations_total": self.mutations_total,
            "drop_conversations_total": self.drop_conversations_total,
            "drops_arbitrated_total": self.drops_arbitrated_total,
            "deduplicated_total": self.deduplicated_total,
            "throttled_total": self.control_gate.rejected_total,
            "bad_requests_total": self.server.errors[400],
            "server_errors_total": self.server.errors[500],
            "chose_closest": service.chose_closest,
            "chose_least_requested": service.chose_least_requested,
        }
