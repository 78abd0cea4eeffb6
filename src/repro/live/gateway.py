"""The gateway: one front door routing onto the sharded redirector tier.

A sharded deployment (DESIGN §10) runs ``num_shards`` redirector
processes, each owning a consistent-hash partition of the object
namespace.  Hosts and clients should not need to know the partition:
they contact *one* address — this gateway — and it forwards every
object-keyed conversation to the owning shard over pooled keep-alive
connections:

* ``GET /route?obj=`` and the registry notices go to ``ring.owner(obj)``;
* ``load_report`` is broadcast to every shard (marked ``forwarded`` so
  shards do not re-broadcast) — the offload board is deployment-wide;
* ``offload_candidates`` round-robins across shards (their boards
  converge via the broadcast, so any shard can answer).

The gateway holds no protocol state of its own — no registry, no load
board — which is what makes it safe to restart at any time and thin
enough that a partition-aware client (the saturation loadgen) can skip
it entirely and talk to shards directly through the *same* ring.

It doubles as the membership rendezvous for ephemeral-port deployments:
shards and hosts ``POST /admin/register_*`` after binding, and the
gateway re-broadcasts the merged peer directory to every shard, so all
parties converge on the same address book without fixed ports.
"""

from __future__ import annotations

import asyncio

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
from repro.live.tier import TierMember


class LiveGateway(TierMember):
    """The stateless front-door router of a sharded redirector tier."""

    def __init__(self, config: LiveConfig, directory: PeerDirectory) -> None:
        super().__init__(config, directory)
        self.route_forwards = 0
        self.control_forwards = 0
        self._offload_cursor = 0
        bind_host, port = config.gateway_address()
        self.server = HttpServer(self._build_router(), host=bind_host, port=port)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/route", self._route)
        router.add("POST", "/control/replica_created", self._control_by_obj)
        router.add("POST", "/control/affinity_reduced", self._control_by_obj)
        router.add("POST", "/control/request_drop", self._control_by_obj)
        router.add("POST", "/control/load_report", self._load_report)
        router.add("GET", "/control/offload_candidates", self._offload_candidates)
        router.add("POST", "/control/peers", self._peers)
        router.add("POST", "/admin/register_shard", self._register_shard)
        router.add("POST", "/admin/register_host", self._register_host)
        router.add("GET", "/admin/endpoints", self._endpoints)
        router.add("GET", "/metrics", self._metrics)
        router.add("GET", "/healthz", self._healthz)
        return router

    async def _route(self, request: Request, params: dict) -> Response:
        try:
            obj = int(request.query["obj"])
        except (KeyError, ValueError):
            return error_response(400, "route needs integer obj=")
        if self.route_gate is not None:
            wait = self.route_gate.try_acquire()
            if wait > 0.0:
                return throttle_response(wait)
        self.route_forwards += 1
        return await self._forward(self.ring.owner(obj), request)

    async def _control_by_obj(self, request: Request, params: dict) -> Response:
        """Forward a registry notice to the shard owning its object."""
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        try:
            payload = request.json()
            try:
                obj = int(payload["obj"])
            except (KeyError, ValueError):
                return error_response(400, "control mutation needs integer obj")
            self.control_forwards += 1
            return await self._forward(self.ring.owner(obj), request)
        finally:
            self.control_gate.release()

    async def _load_report(self, request: Request, params: dict) -> Response:
        """Broadcast a host's load report to every shard.

        Marked ``forwarded`` so receiving shards do not re-broadcast.
        Success means at least one shard took the report; the rest are
        best-effort, superseded by next interval's report anyway.
        """
        wait = self.control_gate.admit()
        if wait > 0.0:
            return throttle_response(wait)
        try:
            payload = request.json()
            if "node" not in payload or "load" not in payload:
                return error_response(400, "load_report needs node and load")
            payload["forwarded"] = True
            results = await asyncio.gather(
                *(
                    self.pool.request(
                        address, "POST", "/control/load_report",
                        payload=payload, timeout=2.0,
                    )
                    for address in self.directory.shards().values()
                ),
                return_exceptions=True,
            )
            delivered = sum(
                1
                for result in results
                if not isinstance(result, BaseException) and result[0] < 400
            )
            if not delivered:
                return error_response(502, "no shard accepted the load report")
            return json_response({"ok": True, "delivered": delivered})
        finally:
            self.control_gate.release()

    async def _offload_candidates(self, request: Request, params: dict) -> Response:
        shards = sorted(self.directory.shards())
        if not shards:
            return error_response(503, "no shard registered yet")
        self._offload_cursor = (self._offload_cursor + 1) % len(shards)
        return await self._forward(shards[self._offload_cursor], request)

    # -- membership -----------------------------------------------------

    async def _register_shard(self, request: Request, params: dict) -> Response:
        payload = request.json()
        try:
            shard = int(payload["shard"])
            address = (str(payload["host"]), int(payload["port"]))
        except (KeyError, ValueError):
            return error_response(400, "register_shard needs shard, host, port")
        if not 0 <= shard < self.config.num_shards:
            return error_response(400, f"no shard {shard} in this deployment")
        self.directory.set_shard(shard, address)
        await self._broadcast_peers()
        return json_response({"ok": True})

    async def _register_host(self, request: Request, params: dict) -> Response:
        payload = request.json()
        try:
            node = int(payload["node"])
            address = (str(payload["host"]), int(payload["port"]))
        except (KeyError, ValueError):
            return error_response(400, "register_host needs node, host, port")
        self.directory.set_host(node, address)
        await self._broadcast_peers()
        return json_response({"ok": True})

    async def _broadcast_peers(self) -> None:
        """Push the merged address book to every registered shard."""
        payload = self.directory.peers_payload()
        await asyncio.gather(
            *(
                self.pool.request(
                    address, "POST", "/control/peers", payload=payload,
                    timeout=2.0,
                )
                for address in self.directory.shards().values()
            ),
            return_exceptions=True,
        )

    async def _endpoints(self, request: Request, params: dict) -> Response:
        payload = self.directory.peers_payload()
        payload["num_shards"] = self.config.num_shards
        payload["role"] = "gateway"
        return json_response(payload)

    # -- observability --------------------------------------------------

    async def _metrics(self, request: Request, params: dict) -> Response:
        """The gateway's own counters plus every shard's snapshot."""
        shards: dict[str, dict] = {}
        entries = sorted(self.directory.shards().items())
        replies = await asyncio.gather(
            *(
                self.pool.fetch_json(address, "GET", "/metrics", timeout=2.0)
                for _, address in entries
            ),
            return_exceptions=True,
        )
        for (shard, _), reply in zip(entries, replies):
            if isinstance(reply, BaseException):
                shards[str(shard)] = {"error": str(reply)}
            else:
                shards[str(shard)] = reply
        return json_response({**self.snapshot(), "shards": shards})

    async def _healthz(self, request: Request, params: dict) -> Response:
        return json_response(
            {
                "ok": True,
                "role": "gateway",
                "shards_registered": len(self.directory.shards()),
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        port = await self.server.start()
        self.directory.set_redirector((self.server.host, port))
        return port

    def snapshot(self) -> dict:
        return {
            "role": "gateway",
            "num_shards": self.config.num_shards,
            "route_forwards": self.route_forwards,
            "control_forwards": self.control_forwards,
            "throttled_total": self.control_gate.rejected_total,
        }


__all__ = ["LiveGateway"]
