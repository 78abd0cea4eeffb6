"""The typed control-plane client, riding the keep-alive :class:`HttpPool`.

Every :class:`ControlPlane` method is a coroutine run on the process's
one event loop — the loop that owns the pooled sockets, serves the
process's own endpoints, and drives its placement rounds.  A caller
awaits the conversation; nothing blocks and no thread is involved, so a
conversation with a peer served on the same loop (a single-process
deployment) simply interleaves with that peer's handler.

Reliability grades mirror :mod:`repro.network.rpc`: plain calls and
notifies are single attempts (a loss degrades gracefully, as in the
sim's fault plane), while *persistent* calls — drop arbitration and the
replica-created registration, whose loss would desynchronise the
redirector registry — retry a lost exchange, a 429 or a 5xx with
backoff before giving up; any other status is final.

Three behaviours support the sharded tier (DESIGN §10):

* every registry mutation goes straight to the shard owning its object,
  looked up in the deployment ring's owner table.  An owner missing from
  the address book triggers one refresh from the front door; if it is
  still missing, the front door gets the mutation and relays it;
* every registry mutation carries a unique ``msg_id``; the owning shard
  deduplicates on it, so a persistent retry whose first attempt *did*
  land (the reply was lost, or the forwarding hop failed after the
  owner applied it) is recognised and not applied twice;
* a ``429 Too Many Requests`` reply carries the shard's backpressure
  hint in ``Retry-After`` (fractional seconds); persistent calls wait
  that long — instead of the blind backoff — before retrying.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from collections.abc import Sequence
from typing import Any

from repro.core.runtime import AffinityReduced, LoadReport, ReplicaCreated, RequestDrop, to_wire
from repro.errors import ConfigurationError
from repro.types import NodeId, ObjectId

from repro.live.config import PeerDirectory
from repro.live.pool import Address, HttpPool, TransportError

#: Attempts for persistent (must-not-be-lost) control conversations.
PERSISTENT_ATTEMPTS = 4
PERSISTENT_BACKOFF = 0.05

#: The registry mutations: message -> (path at the owning shard, persistent).
#: A lost ``AffinityReduced`` only leaves a stale (higher) affinity behind.
MUTATIONS = {
    ReplicaCreated: ("/control/replica_created", True),
    AffinityReduced: ("/control/affinity_reduced", False),
    RequestDrop: ("/control/request_drop", True),
}


def fetch_endpoints(front: Address, *, timeout: float = 5.0) -> dict[str, Any]:
    """The front door's address book, for a caller with no event loop."""

    async def once() -> dict[str, Any]:
        pool = HttpPool(timeout=timeout)
        try:
            return await pool.fetch_json(front, "GET", "/admin/endpoints")
        finally:
            await pool.close()

    return asyncio.run(once())


class ControlPlane:
    """Typed client for the deployment's JSON-over-HTTP control plane."""

    def __init__(
        self,
        directory: PeerDirectory,
        *,
        timeout: float = 5.0,
        owners: Sequence[int] = (),
    ) -> None:
        self.directory = directory
        self.timeout = timeout
        #: ``owners[obj]`` is the shard owning object ``obj`` (the ring's
        #: table, :meth:`~repro.routing.hashring.HashRing.owners`).  An
        #: object outside it is sent to the front door.
        self.owners = owners
        self.pool = HttpPool(timeout=timeout)
        # Registry-mutation ids: unique across processes (uuid origin)
        # and cheap per message (a counter).  The owning shard dedups
        # on these, making persistent retries idempotent end to end.
        self._msg_origin = uuid.uuid4().hex[:12]
        self._msg_seq = itertools.count()

    async def close(self) -> None:
        await self.pool.close()

    # -- the one way out ------------------------------------------------

    async def _call(
        self,
        address: Address,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        persistent: bool = False,
        raw: bool = False,
    ) -> Any:
        """One conversation: the reply's JSON object (its bytes when
        ``raw``).  Every failure, error statuses included, is a
        :class:`TransportError`; the pool bounds each attempt by
        ``timeout``.
        """
        send = self.pool.fetch if raw else self.pool.fetch_json
        attempts = PERSISTENT_ATTEMPTS if persistent else 1
        for attempt in range(1, attempts + 1):
            try:
                return await send(address, method, path, payload=payload)
            except TransportError as failure:
                # A 4xx other than 429 is a refusal: it would be refused again.
                status = failure.status
                if attempt == attempts or status not in (None, 429) and status < 500:
                    raise
                # Honour the shard's backpressure hint: it knows when the
                # next token arrives, blind backoff doesn't.
                await asyncio.sleep(
                    failure.retry_after
                    if failure.retry_after is not None
                    else PERSISTENT_BACKOFF * attempt
                )

    async def _front(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        persistent: bool = False,
    ) -> dict[str, Any]:
        """A conversation with the front door."""
        return await self._call(
            self.directory.redirector(), method, path, payload, persistent=persistent
        )

    async def mutate(
        self, message: ReplicaCreated | AffinityReduced | RequestDrop
    ) -> dict[str, Any]:
        """Send a registry mutation (one of :data:`MUTATIONS`) to the shard
        owning its object(s), stamped with the ``msg_id`` it dedups on."""
        path, persistent = MUTATIONS[type(message)]
        payload = to_wire(message)
        payload["msg_id"] = f"{self._msg_origin}-{next(self._msg_seq)}"
        obj = message.objs[0] if type(message) is RequestDrop else message.obj
        return await self._call(
            await self._owner(obj), "POST", path, payload, persistent=persistent
        )

    async def _owner(self, obj: ObjectId) -> Address:
        """The address of the shard owning ``obj``, refreshing the address
        book from the front door once when it is unknown; failing that,
        the front door's, which relays."""
        directory = self.directory
        if obj < len(self.owners):
            shard = self.owners[obj]
            if not directory.knows_shard(shard):
                try:
                    await self.refresh_peers()
                except (ConfigurationError, TransportError):
                    pass
            if directory.knows_shard(shard):
                return directory.shard(shard)
        return directory.redirector()

    async def refresh_peers(self) -> None:
        """Re-pull the peer address book from the front door.

        Ephemeral-port deployments converge by registration: every
        process announces its bound port to the front door, which
        aggregates the address book at ``/admin/endpoints``.
        """
        self.directory.apply_peers(await self._front("GET", "/admin/endpoints"))

    async def _host_address(self, node: NodeId) -> Address:
        """Resolve a host's address, refreshing from the front door once.

        A still-unknown peer (it has not registered yet) surfaces as
        :class:`TransportError` — the same failure mode as an
        unreachable one — so callers degrade gracefully instead of
        crashing a placement tick.
        """
        try:
            return self.directory.host(node)
        except ConfigurationError:
            pass
        try:
            await self.refresh_peers()
            return self.directory.host(node)
        except (ConfigurationError, TransportError) as exc:
            raise TransportError(f"host {node} has no known address: {exc}") from exc

    # -- host-to-host ---------------------------------------------------

    async def create_obj(
        self, candidate: NodeId, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Offer a replica/affinity unit to ``candidate`` (Figure 4)."""
        return await self._call(
            await self._host_address(candidate), "POST", "/control/create_obj", payload
        )

    async def host_load(self, node: NodeId) -> dict[str, Any]:
        """The offload probe: ask a host for its current load estimate."""
        return await self._call(await self._host_address(node), "GET", "/control/load")

    async def fetch_object(
        self, node: NodeId, obj: ObjectId, *, address: Address | None = None
    ) -> bytes:
        """Pull an object's bytes from a replica host (the bulk copy)."""
        return await self._call(
            address if address is not None else await self._host_address(node),
            "GET",
            f"/data/{obj}",
            raw=True,
        )

    # -- host-to-redirector ---------------------------------------------

    async def replica_created(self, node: NodeId, obj: ObjectId, affinity: int) -> None:
        await self.mutate(ReplicaCreated(obj, node, affinity))

    async def request_drop(self, node: NodeId, objs: list[ObjectId]) -> list[bool]:
        """Intention-to-drop arbitration for ``objs``, which one shard owns:
        one approval per object, in order."""
        reply = await self.mutate(RequestDrop(node, tuple(objs)))
        approved = reply.get("approved")
        if type(approved) is not list or len(approved) != len(objs):
            raise TransportError(f"malformed request_drop answer {reply!r}")
        return [answer is True for answer in approved]

    async def load_report(self, node: NodeId, load: float) -> None:
        """Post this measurement interval's load to the board."""
        await self._front("POST", "/control/load_report", to_wire(LoadReport(node, load)))

    async def offload_candidates(self, exclude: NodeId) -> list[dict[str, Any]]:
        """Fresh load-board entries, most idle first (Offload, Figure 5)."""
        reply = await self._front("GET", f"/control/offload_candidates?exclude={exclude}")
        candidates = reply.get("candidates", [])
        if not (isinstance(candidates, list) and all(type(e) is dict for e in candidates)):
            raise TransportError("malformed offload candidate list")
        return candidates

    # -- membership (ephemeral-port deployments) ------------------------

    async def register_host(self, node: NodeId, address: Address) -> None:
        """Announce a host's bound address to the front door (persistent)."""
        await self._front(
            "POST",
            "/admin/register_host",
            {"node": node, "host": address[0], "port": address[1]},
            persistent=True,
        )

    async def register_shard(self, shard: int, address: Address) -> None:
        """Announce a shard's bound address to the front door, shard 0 (persistent)."""
        await self._front(
            "POST",
            "/admin/register_shard",
            {"shard": shard, "host": address[0], "port": address[1]},
            persistent=True,
        )
