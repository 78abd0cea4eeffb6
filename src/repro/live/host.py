"""The live replica host: object serving plus protocol timers.

One :class:`LiveHostNode` is the live analogue of a simulated node's
hosting server.  It serves object bytes over HTTP (recording each
serviced request and the gateway it entered at, exactly the control
state the simulator's hosts keep), answers the control plane's CreateObj offers
and load probes, and runs the two wall-clock protocol timers:

* every ``measurement_interval`` seconds: fold the load meter into the
  bound estimator and post a load report to the redirector's board;
* every ``placement_interval`` seconds (phase-staggered across hosts,
  as in the simulator): one DecidePlacement round, which may fan out
  CreateObj offers, drop arbitration and bulk Offload over the control
  plane.

Everything runs on the process's one event loop.  The timers and the
CreateObj handler await their control conversations
(:class:`~repro.live.client.ControlPlane` coroutines); request-path
handlers touch only in-process state and answer inline.  Host state
needs no locks: it changes only between awaits, and a round that is
waiting on a peer sees the same interleaving a simulated host would see
from requests arriving mid-conversation.
"""

from __future__ import annotations

import asyncio

from repro.core.host import HostServer
from repro.core.runtime import Clock, CreateObj, from_wire, placement_offset
from repro.errors import ConfigurationError
from repro.obs.tracer import ProtocolTracer
from repro.routing.hashring import HashRing
from repro.routing.routes_db import RoutingDatabase
from repro.types import NodeId, ObjectId

from repro.live.client import ControlPlane
from repro.live.config import LiveConfig, PeerDirectory, peer_address
from repro.live.httpd import (
    BadRequest,
    HttpServer,
    Request,
    Response,
    Router,
    error_response,
    json_response,
)
from repro.live.system import LiveSystem


def object_payload(obj: ObjectId, size: int) -> bytes:
    """Deterministic body for an object: every replica serves the same
    bytes, and the parity tests can assert a copied replica is intact."""
    stamp = f"obj-{obj}:".encode("ascii")
    repeats = size // len(stamp) + 1
    return (stamp * repeats)[:size]


class LiveHostNode:
    """One replica host process: HTTP server + protocol timers."""

    def __init__(
        self,
        node: NodeId,
        config: LiveConfig,
        routes: RoutingDatabase,
        clock: Clock,
        directory: PeerDirectory,
        *,
        ring: HashRing,
        tracer: ProtocolTracer | None = None,
    ) -> None:
        self.node = node
        self.config = config
        self.routes = routes
        self.clock = clock
        self.host = HostServer(
            node,
            config.protocol,
            routes.preference_paths(node),
            capacity=config.capacity,
            storage_limit=config.storage_limit,
            start=clock.now,
        )
        self.control = ControlPlane(directory, owners=ring.owners(config.num_objects))
        self.system = LiveSystem(
            node,
            self.host,
            config.protocol,
            routes,
            clock,
            self.control,
            tracer=tracer,
        )
        # Original placement (object i on host i mod n), mirrored by the
        # redirector's register_initial from the same config.
        for obj in config.objects_for(node):
            self.host.store.add(obj)
        #: The wire limits of a control body: ``(nodes, objects)``.
        self.limits = (routes.num_nodes, config.num_objects)
        bind_host, port = config.host_address(node)
        self.server = HttpServer(self._build_router(), host=bind_host, port=port)
        self._timers: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/obj/{obj}", self._serve_object)
        router.add("GET", "/data/{obj}", self._serve_data)
        router.add("POST", "/control/create_obj", self._create_obj)
        router.add("GET", "/control/load", self._load_probe)
        router.add("GET", "/metrics", self._metrics)
        router.add("GET", "/healthz", self._healthz)
        return router

    def _object_id(self, text: str) -> ObjectId:
        """An object id from a request path, checked before anything uses it."""
        limit = self.config.num_objects
        if not (text.isdecimal() and int(text) < limit):
            raise BadRequest(f"object id must be an integer in [0, {limit}), got {text!r}")
        return int(text)

    def _serve_object(self, request: Request, params: dict) -> Response:
        """The data plane: service one client request for an object."""
        obj = self._object_id(params["obj"])
        host = self.host
        if not host.available:
            return error_response(503, "host unavailable")
        if obj not in host.store:
            # The redirector's view was stale (replica dropped between
            # routing and arrival); the client retries via the redirector.
            return error_response(409, f"no replica of object {obj} here")
        # The gateway id is client input and is only walked into a
        # preference path at the next placement round: reject a bad one
        # here, before it is counted.
        raw_gateway = request.query.get("gateway", str(self.node))
        try:
            gateway = int(raw_gateway)
        except ValueError:
            gateway = -1
        if not 0 <= gateway < self.routes.num_nodes:
            return error_response(
                400,
                f"gateway must be a node id in [0, {self.routes.num_nodes}), "
                f"got {raw_gateway!r}",
            )
        host.record_service(obj, gateway)
        return Response(
            status=200,
            body=object_payload(obj, self.config.object_size),
            headers={"X-Served-By": str(self.node)},
        )

    def _serve_data(self, request: Request, params: dict) -> Response:
        """The bulk copy: a peer pulls the object during CreateObj."""
        obj = self._object_id(params["obj"])
        if obj not in self.host.store:
            return error_response(404, f"no replica of object {obj} here")
        return Response(status=200, body=object_payload(obj, self.config.object_size))

    async def _create_obj(self, request: Request, params: dict) -> Response:
        payload = request.json()
        offer = from_wire(CreateObj, payload, self.limits, candidate=self.node)
        addr = payload.get("source_addr")
        try:
            addr = None if addr is None else peer_address(addr, "create_obj source_addr")
        except ConfigurationError as exc:
            raise BadRequest(str(exc)) from None
        return json_response(await self.system.handle_create_obj(offer, addr))

    def _load_probe(self, request: Request, params: dict) -> Response:
        host = self.host
        return json_response(
            {
                "node": self.node,
                "available": host.available,
                "upper_load": host.upper_load,
                "lower_load": host.lower_load,
                "low_watermark": host.low_watermark,
                "high_watermark": host.high_watermark,
                "measured_load": host.measured_load,
            }
        )

    def _metrics(self, request: Request, params: dict) -> Response:
        return json_response(self.snapshot())

    def _healthz(self, request: Request, params: dict) -> Response:
        return json_response({"ok": True, "node": self.node})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, *, timers: bool = True) -> int:
        """Bind the server (returning the port) and start the timers."""
        port = await self.server.start()
        self.system.loop = asyncio.get_running_loop()
        # Advertise the bound address: our own directory entry (local
        # single-process deployments read it directly) and the CreateObj
        # source address (peers pull the bulk copy from it).
        self.control.directory.set_host(self.node, (self.server.host, port))
        self.system.advertised = (self.server.host, port)
        if timers:
            self.start_timers()
        return port

    def start_timers(self) -> None:
        protocol = self.config.protocol
        # The simulator's schedule: the first decision fires one full
        # interval after the host's phase offset.
        first_placement = protocol.placement_interval + placement_offset(
            self.node, self.config.num_hosts, protocol.placement_interval
        )
        self._timers = [
            asyncio.create_task(
                self._timer(
                    protocol.measurement_interval,
                    protocol.measurement_interval,
                    self.system.measurement_round,
                ),
                name=f"host{self.node}-measurement",
            ),
            asyncio.create_task(
                self._timer(
                    first_placement,
                    protocol.placement_interval,
                    self.system.placement_round,
                ),
                name=f"host{self.node}-placement",
            ),
        ]

    @staticmethod
    async def _timer(first_delay: float, interval: float, round_) -> None:
        await asyncio.sleep(first_delay)
        while True:
            await round_()
            await asyncio.sleep(interval)

    async def stop(self) -> None:
        for task in self._timers:
            task.cancel()
        for task in self._timers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._timers = []
        await self.server.stop()
        await self.control.close()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        from repro.live.metrics import placement_event_dict

        host = self.host
        return {
            "node": self.node,
            "available": host.available,
            "serviced_total": host.serviced_total,
            "objects": {
                str(obj): host.store.affinity(obj)
                for obj in sorted(host.store.objects())
            },
            "measured_load": host.measured_load,
            "upper_load": host.upper_load,
            "lower_load": host.lower_load,
            "offloading": host.offloading,
            "bad_requests_total": self.server.errors[400],
            "server_errors_total": self.server.errors[500],
            "placement_events": [
                placement_event_dict(event)
                for event in self.system.placement_events
            ],
        }
