"""What the gateway and every redirector shard share.

Both are members of the sharded redirector tier (DESIGN §10): each holds
the same consistent-hash ring, relays a conversation it does not own to
the shard that does over its pooled keep-alive client, sheds control
load through the same gate, and folds the gateway's peers broadcast
into its address book.  Written once here; what differs between the two
(who is asked, what is applied locally) stays in their own modules.
"""

from __future__ import annotations

from urllib.parse import urlencode

from repro.routing.hashring import HashRing

from repro.live.backpressure import Backpressure
from repro.live.config import LiveConfig, PeerDirectory
from repro.live.httpd import (
    HttpServer,
    Request,
    Response,
    error_response,
    json_response,
)
from repro.live.pool import HttpPool, TransportError


class TierMember:
    """The ring, the relay onto it, the control gate and the peers handler."""

    server: HttpServer

    def __init__(self, config: LiveConfig, directory: PeerDirectory) -> None:
        self.config = config
        self.directory = directory
        self.ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)
        self.pool = HttpPool(timeout=5.0)
        self.control_gate = Backpressure(
            rate=config.control_rate_limit,
            burst=config.control_burst,
            max_inflight=config.control_max_inflight,
        )

    async def _forward(self, shard: int, request: Request) -> Response:
        """Relay ``request`` to ``shard`` and pass its answer through.

        The status, body, content type and a 429's ``Retry-After`` are
        the shard's; 503 before it has registered, 502 when the exchange
        itself fails.
        """
        if not self.directory.knows_shard(shard):
            return error_response(503, f"shard {shard} not registered yet")
        path = request.path
        if request.query:
            path += "?" + urlencode(request.query)
        try:
            status, headers, body = await self.pool.request(
                self.directory.shard(shard),
                request.method,
                path,
                body=request.body or None,
            )
        except TransportError as exc:
            return error_response(502, f"shard {shard} unreachable: {exc}")
        response = Response(
            status=status,
            body=body,
            content_type=headers.get("content-type", "application/json"),
        )
        if "retry-after" in headers:
            response.headers["Retry-After"] = headers["retry-after"]
        return response

    async def _peers(self, request: Request, params: dict) -> Response:
        """A peer announcement (the gateway's fan-out after registration)."""
        self.directory.apply_peers(request.json())
        return json_response({"ok": True})

    async def stop(self) -> None:
        await self.server.stop()
        await self.pool.close()
