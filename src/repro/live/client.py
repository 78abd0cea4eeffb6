"""The typed control-plane client, riding the keep-alive :class:`HttpPool`.

Every :class:`ControlPlane` method is a coroutine run on the process's
one event loop — the loop that owns the pooled sockets, serves the
process's own endpoints, and drives its placement rounds.  A caller
awaits the conversation; nothing blocks and no thread is involved, so a
conversation with a peer served on the same loop (a single-process
deployment) simply interleaves with that peer's handler.

Each conversation makes the attempts its row of the retry table allows
(:data:`repro.core.runtime.RETRIES`, which the simulator reads too): a
bounded row re-sends only what another attempt could change (a lost
exchange, a 429 or a 5xx) and raises when its budget is spent.

Three behaviours support the sharded tier (DESIGN §10):

* every registry mutation goes straight to the shard owning its object,
  looked up in the deployment ring's owner table.  An owner missing from
  the address book triggers one refresh from the front door; if it is
  still missing, the front door gets the mutation and relays it;
* every registry mutation carries a unique ``msg_id``; the owning shard
  deduplicates on it, so a retry whose first attempt *did*
  land (the reply was lost, or the forwarding hop failed after the
  owner applied it) is recognised and not applied twice;
* a ``429 Too Many Requests`` reply carries the shard's backpressure
  hint in ``Retry-After`` (fractional seconds); a retry waits that long
  instead of the blind backoff.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from collections.abc import Sequence
from typing import Any

from repro.core.runtime import (LIVE_BACKOFF, AffinityReduced, LoadReport, ReplicaCreated,
                                RequestDrop, attempts, backoff, retryable, to_wire)
from repro.errors import ConfigurationError
from repro.types import NodeId, ObjectId

from repro.live.config import PeerDirectory
from repro.live.pool import Address, HttpPool, TransportError

#: The registry mutations: message -> path at the owning shard.
MUTATIONS = {
    ReplicaCreated: "/control/replica_created",
    AffinityReduced: "/control/affinity_reduced",
    RequestDrop: "/control/request_drop",
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
        # on these, making retries idempotent end to end.
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
        conversation: str,
        raw: bool = False,
    ) -> Any:
        """One ``conversation`` (a row of the retry table): the reply's JSON
        object (its bytes when ``raw``).  Every failure, error statuses
        included, is a :class:`TransportError`; the pool bounds each
        attempt by ``timeout``.
        """
        send = self.pool.fetch if raw else self.pool.fetch_json
        budget = attempts(conversation)
        for attempt in range(1, budget + 1):
            try:
                return await send(address, method, path, payload=payload)
            except TransportError as failure:
                if attempt == budget or not retryable(failure.status):
                    raise
                # Honour the shard's backpressure hint: it knows when the
                # next token arrives, blind backoff doesn't.
                hint = failure.retry_after
                await asyncio.sleep(backoff(attempt, LIVE_BACKOFF) if hint is None else hint)

    async def _front(
        self, conversation: str, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """A conversation with the front door."""
        address = self.directory.redirector()
        return await self._call(address, method, path, payload, conversation=conversation)

    async def mutate(
        self, message: ReplicaCreated | AffinityReduced | RequestDrop
    ) -> dict[str, Any]:
        """Send a registry mutation (one of :data:`MUTATIONS`) to the shard
        owning its object(s), stamped with the ``msg_id`` it dedups on."""
        kind = type(message)
        payload = to_wire(message)
        payload["msg_id"] = f"{self._msg_origin}-{next(self._msg_seq)}"
        obj = message.objs[0] if kind is RequestDrop else message.obj
        address = await self._owner(obj)
        return await self._call(address, "POST", MUTATIONS[kind], payload, conversation=kind.__name__)

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
        self.directory.apply_peers(await self._front("Endpoints", "GET", "/admin/endpoints"))

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
            await self._host_address(candidate), "POST", "/control/create_obj", payload,
            conversation="CreateObj",
        )

    async def host_load(self, node: NodeId) -> dict[str, Any]:
        """The offload probe: ask a host for its current load estimate."""
        return await self._call(
            await self._host_address(node), "GET", "/control/load", conversation="ProbeLoad"
        )

    async def fetch_object(
        self, node: NodeId, obj: ObjectId, *, address: Address | None = None
    ) -> bytes:
        """Pull an object's bytes from a replica host (the bulk copy)."""
        return await self._call(
            address if address is not None else await self._host_address(node),
            "GET",
            f"/data/{obj}",
            conversation="ObjectCopy",
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
        await self._front("LoadReport", "POST", "/control/load_report", to_wire(LoadReport(node, load)))

    async def offload_candidates(self, exclude: NodeId) -> list[dict[str, Any]]:
        """Fresh load-board entries, most idle first (Offload, Figure 5)."""
        reply = await self._front("ReadBoard", "GET", f"/control/offload_candidates?exclude={exclude}")
        candidates = reply.get("candidates", [])
        if not (isinstance(candidates, list) and all(type(e) is dict for e in candidates)):
            raise TransportError("malformed offload candidate list")
        return candidates

    # -- membership (ephemeral-port deployments) ------------------------

    async def register_host(self, node: NodeId, address: Address) -> None:
        """Announce a host's bound address to the front door."""
        await self._front(
            "Register", "POST", "/admin/register_host",
            {"node": node, "host": address[0], "port": address[1]},
        )

    async def register_shard(self, shard: int, address: Address) -> None:
        """Announce a shard's bound address to the front door, shard 0."""
        await self._front(
            "Register", "POST", "/admin/register_shard",
            {"shard": shard, "host": address[0], "port": address[1]},
        )
