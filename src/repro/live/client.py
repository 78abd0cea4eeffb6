"""The typed control-plane client, riding the keep-alive :class:`HttpPool`.

The protocol's outbound conversations are synchronous by nature — a
CreateObj offer blocks the placement pass until the candidate answers,
exactly as the simulator's in-process call does — so every
:class:`ControlPlane` method blocks its caller.  The sockets, though,
belong to the process's event loop (the same pooled client the data
plane uses), so each call is handed to that loop and waited for.

**The threading rule.**  A ``ControlPlane`` method may be called from
any thread *except* the loop's own: tick threads and
``asyncio.to_thread`` workers are the callers.  The loop is named once
with :meth:`ControlPlane.bind` (``LiveHostNode.start`` does it); a call
made on the loop thread would wait for a reply only that thread can
read, so it raises at once instead of deadlocking.

Reliability grades mirror :mod:`repro.network.rpc`: plain calls and
notifies are single attempts (a loss degrades gracefully, as in the
sim's fault plane), while *persistent* calls — drop arbitration and the
replica-created registration, whose loss would desynchronise the
redirector registry — retry with backoff before giving up.

Two behaviours support the sharded tier (DESIGN §10):

* every registry mutation carries a unique ``msg_id``; the owning shard
  deduplicates on it, so a persistent retry whose first attempt *did*
  land (the reply was lost, or the forwarding hop failed after the
  owner applied it) is recognised and not applied twice;
* a ``429 Too Many Requests`` reply carries the shard's backpressure
  hint in ``Retry-After`` (fractional seconds); persistent calls sleep
  that long — instead of the blind backoff — before retrying.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any

from repro.errors import ConfigurationError
from repro.types import NodeId, ObjectId

from repro.live.config import PeerDirectory
from repro.live.pool import Address, HttpPool, TransportError

#: Attempts for persistent (must-not-be-lost) control conversations.
PERSISTENT_ATTEMPTS = 4
PERSISTENT_BACKOFF = 0.05


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

    def __init__(self, directory: PeerDirectory, *, timeout: float = 5.0) -> None:
        self.directory = directory
        self.timeout = timeout
        self.pool = HttpPool(timeout=timeout)
        self._loop: asyncio.AbstractEventLoop | None = None
        # Registry-mutation ids: unique across processes (uuid origin)
        # and cheap per message (a counter).  The owning shard dedups
        # on these, making persistent retries idempotent end to end.
        self._msg_origin = uuid.uuid4().hex[:12]
        self._msg_seq = itertools.count()

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Name the event loop that owns this plane's sockets."""
        self._loop = loop

    async def close(self) -> None:
        await self.pool.close()

    # -- the one way out ------------------------------------------------

    def _call(
        self,
        address: Address,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        persistent: bool = False,
        raw: bool = False,
    ) -> Any:
        """One conversation, run on the bound loop and waited for.

        Returns the reply's JSON object (its bytes when ``raw``); every
        failure, error statuses included, is a :class:`TransportError`.
        """
        loop = self._loop
        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            on_loop = False
        if loop is None or on_loop:
            raise RuntimeError(
                f"{method} {path}: a ControlPlane call needs a bound event loop "
                "and a caller off that loop's thread (asyncio.to_thread)"
            )
        send = self.pool.fetch if raw else self.pool.fetch_json
        attempts = PERSISTENT_ATTEMPTS if persistent else 1
        for attempt in range(1, attempts + 1):
            future = asyncio.run_coroutine_threadsafe(
                send(address, method, path, payload=payload), loop
            )
            try:
                # The pool bounds connect and exchange by ``timeout``
                # each, twice when a stale socket is redialled; longer
                # than that and the loop is not running.
                return future.result(4 * self.timeout)
            except FutureTimeout:
                future.cancel()
                failure = TransportError(f"{method} {path}: event loop never answered")
            except TransportError as exc:
                failure = exc
            if attempt == attempts:
                raise failure
            # Honour the shard's backpressure hint: it knows when the
            # next token arrives, blind backoff doesn't.
            time.sleep(
                failure.retry_after
                if failure.retry_after is not None
                else PERSISTENT_BACKOFF * attempt
            )

    def _front(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        persistent: bool = False,
        stamped: bool = False,
    ) -> dict[str, Any]:
        """A conversation with the front door; ``stamped`` registry
        mutations carry the ``msg_id`` the owning shard dedups on."""
        if stamped:
            payload["msg_id"] = f"{self._msg_origin}-{next(self._msg_seq)}"
        return self._call(
            self.directory.redirector(), method, path, payload, persistent=persistent
        )

    def refresh_peers(self) -> None:
        """Re-pull the peer address book from the front door.

        Ephemeral-port deployments converge by registration: every
        process announces its bound port to the front door, which
        aggregates the address book at ``/admin/endpoints``.
        """
        self.directory.apply_peers(self._front("GET", "/admin/endpoints"))

    def _host_address(self, node: NodeId) -> Address:
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
            self.refresh_peers()
            return self.directory.host(node)
        except (ConfigurationError, TransportError) as exc:
            raise TransportError(f"host {node} has no known address: {exc}") from exc

    # -- host-to-host ---------------------------------------------------

    def create_obj(self, candidate: NodeId, payload: dict[str, Any]) -> dict[str, Any]:
        """Offer a replica/affinity unit to ``candidate`` (Figure 4)."""
        return self._call(
            self._host_address(candidate), "POST", "/control/create_obj", payload
        )

    def host_load(
        self, node: NodeId, *, address: Address | None = None
    ) -> dict[str, Any]:
        """The offload probe: ask a host for its current load estimate."""
        return self._call(
            address if address is not None else self._host_address(node),
            "GET",
            "/control/load",
        )

    def fetch_object(
        self, node: NodeId, obj: ObjectId, *, address: Address | None = None
    ) -> bytes:
        """Pull an object's bytes from a replica host (the bulk copy)."""
        return self._call(
            address if address is not None else self._host_address(node),
            "GET",
            f"/data/{obj}",
            raw=True,
        )

    # -- host-to-redirector ---------------------------------------------

    def replica_created(self, node: NodeId, obj: ObjectId, affinity: int) -> None:
        """Register a new copy / affinity increase (persistent)."""
        self._front(
            "POST",
            "/control/replica_created",
            {"obj": obj, "host": node, "affinity": affinity},
            persistent=True,
            stamped=True,
        )

    def affinity_reduced(self, node: NodeId, obj: ObjectId, affinity: int) -> None:
        """Report a non-final affinity decrement (notify grade)."""
        self._front(
            "POST",
            "/control/affinity_reduced",
            {"obj": obj, "host": node, "affinity": affinity},
            stamped=True,
        )

    def request_drop(self, node: NodeId, obj: ObjectId) -> dict[str, Any]:
        """Intention-to-drop arbitration (persistent round trip)."""
        return self._front(
            "POST",
            "/control/request_drop",
            {"obj": obj, "host": node},
            persistent=True,
            stamped=True,
        )

    def load_report(self, node: NodeId, load: float) -> None:
        """Post this measurement interval's load to the board."""
        self._front("POST", "/control/load_report", {"node": node, "load": load})

    def offload_candidates(self, exclude: NodeId) -> list[dict[str, Any]]:
        """Fresh load-board entries, most idle first (Offload, Figure 5)."""
        reply = self._front("GET", f"/control/offload_candidates?exclude={exclude}")
        candidates = reply.get("candidates", [])
        if not isinstance(candidates, list):
            raise TransportError("malformed offload candidate list")
        return candidates

    # -- membership (ephemeral-port deployments) ------------------------

    def register_host(self, node: NodeId, address: Address) -> None:
        """Announce a host's bound address to the front door (persistent)."""
        self._front(
            "POST",
            "/admin/register_host",
            {"node": node, "host": address[0], "port": address[1]},
            persistent=True,
        )

    def register_shard(self, shard: int, address: Address) -> None:
        """Announce a shard's bound address to the gateway (persistent)."""
        self._front(
            "POST",
            "/admin/register_shard",
            {"shard": shard, "host": address[0], "port": address[1]},
            persistent=True,
        )
