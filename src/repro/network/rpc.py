"""Request/response messaging over the (possibly unreliable) backbone.

The placement protocol's control conversations — the CreateObj handshake,
offload-recipient probes, drop arbitration, registry notifications, load
reports — were written against a reliable transport.  :class:`RpcLayer`
is the thin shim that runs them over a lossy one: per-attempt timeouts,
the attempt budget of each conversation's row of the retry table
(:data:`repro.core.runtime.RETRIES`, which the live tier's
``ControlPlane`` reads too), exponential backoff plus jitter, and
idempotent receive handling (a retransmitted request that already
executed is deduplicated at the receiver, which simply resends its
response).  A conversation whose budget runs out gives up; its caller
applies the row's give-up rule.  Nothing is delivered by fiat.

The layer keeps the simulation's decision-time modelling (see the timing
note in :mod:`repro.core.protocol`): a call's outcome is resolved
synchronously while its bytes — including every retransmission — are
charged to the backbone in full, and the accumulated latency (timeouts,
backoff waits, message delays) is reported on the outcome for callers
that want to model it.

Channels
--------
``call``
    Request/response.  May fail: the caller observes ``executed`` (did
    the request reach a live target?) and ``acked`` (did the caller see
    the response?) separately, because a lost ack leaves the side effect
    applied at the target.
``notify``
    One-way datagram (registry notifications, load reports, heartbeats);
    returns whether a copy arrived.
``bulk``
    Object-copy transfer; every round's bytes are charged (RELOCATION
    class), lost ones included.
``update_push``
    Category-1 update propagation (primary → replica): UPDATE payload
    plus CONTROL ack, receiver-side dedup so the update applies exactly
    once.  A failed push leaves the replica stale for anti-entropy or
    read-repair to catch up.

With no fault plane attached every operation degenerates to exactly the
charges the protocol made before this layer existed — same legs, same
order, same arithmetic — preserving byte-identical behaviour for
fault-free runs.  They go through :meth:`Network.transmit`, whose
fault-free path is :meth:`Network.account`'s accounting read off the
pre-bound distance rows and delay tables.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.runtime import BACKOFF_JITTER, RPC_TIMEOUT, attempts, backoff
from repro.network.faults import FaultPlane
from repro.network.message import MessageClass
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.transport import Network


class DedupCache:
    """Idempotent-receive ledger: message id → cached reply.

    The receiver-side half of at-least-once delivery, shared by both
    planes: the simulator's retransmissions are recognised as duplicates
    that "simply resend the response" (module docstring above), and the
    live sharded redirector tier gives every registry mutation a
    ``msg_id`` so a retried or re-forwarded ``replica_created`` /
    ``request_drop`` is applied exactly once — the duplicate gets the
    original reply back instead of re-executing the side effect.

    Bounded LRU: a retry storm cannot balloon memory, and the capacity
    only needs to cover the retry window (attempts x shards in flight),
    far below the default.
    """

    __slots__ = ("_capacity", "_entries", "hits", "evictions")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("dedup capacity must be at least 1")
        self._capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        #: Lookups that found a cached reply (duplicates recognised).
        self.hits = 0
        #: Entries discarded to keep the ledger within capacity.
        self.evictions = 0

    def get(self, msg_id: str) -> Any | None:
        """The cached reply for ``msg_id``, or ``None`` if unseen."""
        try:
            self._entries.move_to_end(msg_id)
        except KeyError:
            return None
        self.hits += 1
        return self._entries[msg_id]

    def put(self, msg_id: str, reply: Any) -> None:
        """Record the reply produced by first executing ``msg_id``."""
        self._entries[msg_id] = reply
        self._entries.move_to_end(msg_id)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._entries


@dataclass(frozen=True, slots=True)
class RpcOutcome:
    """What the caller of one RPC learned.

    ``executed`` — the request reached a live target (the side effect, if
    any, was applied there).  ``acked`` — a response made it back.  A
    lost ack is the dangerous gap between the two: the target acted but
    the caller saw a failure.
    """

    executed: bool
    acked: bool
    attempts: int
    latency: Time


_RELIABLE = RpcOutcome(executed=True, acked=True, attempts=1, latency=0.0)


class RpcLayer:
    """Timeout/retry/dedup messaging shim over a :class:`Network`."""

    def __init__(self, network: "Network", plane: FaultPlane | None = None) -> None:
        self._network = network
        self._plane = plane
        #: Optional :class:`~repro.obs.tracer.ProtocolTracer` receiving an
        #: RpcRecord per completed call while a fault plane is active.
        self.tracer = None
        #: Request/response calls issued (fault plane active only).
        self.calls = 0
        #: Extra attempts beyond each call's first (retransmissions).
        self.retries = 0
        #: Calls whose request never reached a live target.
        self.timeouts = 0
        #: Calls executed at the target whose response never came back.
        self.lost_acks = 0
        #: One-way datagrams that never arrived within their budget.
        self.oneway_dropped = 0
        #: Retransmissions of one-way datagrams.
        self.notify_retransmits = 0
        #: Retransmitted bulk-transfer rounds.
        self.bulk_retransmits = 0
        #: Update pushes issued (fault plane active only).
        self.update_pushes = 0
        #: Extra update-push transmissions beyond each push's first.
        self.update_retransmits = 0
        #: Pushes whose update never applied within the retry budget.
        self.update_push_failures = 0
        #: Retransmitted pushes recognised at the receiver (re-acked
        #: without re-applying the update).
        self.update_push_duplicates = 0
        #: Receiver-side idempotent-receive ledger for update pushes.
        self.dedup = DedupCache()
        self._update_seq = 0

    # ------------------------------------------------------------------
    # Request/response
    # ------------------------------------------------------------------

    def call(
        self,
        source: NodeId,
        target: NodeId,
        conversation: str,
        *,
        request_bytes: int,
        response_bytes: int,
        message_class: MessageClass = MessageClass.CONTROL,
        target_alive: bool = True,
    ) -> RpcOutcome:
        """One request/response ``conversation`` (a row of the retry table).

        ``target_alive`` is the physical truth about the receiving
        process — a crashed host never executes or responds, so every
        attempt times out.  (With no fault plane the parameter is
        ignored: the legacy protocol charged both legs regardless and
        discovered the crash inside the handler.)
        """
        network = self._network
        plane = self._plane
        if plane is None:
            network.transmit(source, target, request_bytes, message_class)
            network.transmit(target, source, response_bytes, message_class)
            return _RELIABLE
        self.calls += 1
        budget = attempts(conversation)
        executed = acked = False
        latency = 0.0
        for tries in range(1, budget + 1):
            if tries > 1:
                self.retries += 1
                latency += backoff(tries - 1, RPC_TIMEOUT) * (
                    1.0 + BACKOFF_JITTER * plane.backoff_jitter()
                )
            _, request_delay, delivered = network.transmit(
                source, target, request_bytes, message_class
            )
            if delivered and target_alive:
                # First delivery executes; retransmissions are recognised
                # as duplicates and only re-trigger the response.
                executed = True
                _, response_delay, returned = network.transmit(
                    target, source, response_bytes, message_class
                )
                if returned:
                    acked = True
                    latency += request_delay + response_delay
                    break
            latency += RPC_TIMEOUT
        if not executed:
            self.timeouts += 1
        elif not acked:
            self.lost_acks += 1
        if self.tracer is not None:
            from repro.obs.records import RpcRecord

            self.tracer.record(RpcRecord(
                source, target, message_class.value, tries, executed, acked, conversation
            ))
        return RpcOutcome(executed=executed, acked=acked, attempts=tries, latency=latency)

    def update_push(
        self,
        source: NodeId,
        target: NodeId,
        size: int,
        *,
        ack_bytes: int,
        target_alive: bool = True,
    ) -> bool:
        """Push one object update to a replica; returns whether it applied.

        The category-1 propagation channel (primary → replica): the full
        update payload travels as UPDATE traffic and a small ack returns
        as CONTROL.  Retries follow the ``UpdatePush`` row; a
        retransmitted push is recognised at the receiver through the
        dedup ledger, so the update applies exactly once and duplicates
        merely re-ack.  A push that keeps losing (partition, crashed
        target) reports ``False`` and the replica stays stale until
        anti-entropy or read-repair catches it up.

        With no fault plane the push degenerates to the single UPDATE
        charge the primary-copy manager made before this channel existed,
        and always applies.
        """
        network = self._network
        plane = self._plane
        if plane is None:
            network.transmit(source, target, size, MessageClass.UPDATE)
            return True
        self.update_pushes += 1
        self._update_seq += 1
        msg_id = f"u{self._update_seq}"
        applied = False
        for tries in range(attempts("UpdatePush")):
            if tries:
                self.update_retransmits += 1
            _, _, delivered = network.transmit(
                source, target, size, MessageClass.UPDATE
            )
            if delivered and target_alive:
                if self.dedup.get(msg_id) is None:
                    self.dedup.put(msg_id, True)
                    applied = True
                else:
                    self.update_push_duplicates += 1
                _, _, returned = network.transmit(
                    target, source, ack_bytes, MessageClass.CONTROL
                )
                if returned:
                    return True
            # Lost payload, dead target or lost ack: retry after timeout.
        if not applied:
            self.update_push_failures += 1
        return applied

    # ------------------------------------------------------------------
    # One-way variants
    # ------------------------------------------------------------------

    def notify(
        self,
        source: NodeId,
        target: NodeId,
        size: int,
        conversation: str,
        message_class: MessageClass = MessageClass.CONTROL,
    ) -> bool:
        """One-way ``conversation``; returns whether a copy arrived.  Every
        round's bytes are charged, lost ones included."""
        network = self._network
        if self._plane is None:
            network.transmit(source, target, size, message_class)
            return True
        budget = attempts(conversation)
        tries, delivered = 0, False
        while not delivered and tries < budget:
            tries += 1
            _, _, delivered = network.transmit(source, target, size, message_class)
        if message_class is MessageClass.RELOCATION:
            self.bulk_retransmits += tries - 1
        else:
            self.notify_retransmits += tries - 1
            self.oneway_dropped += not delivered
        return delivered

    def bulk(self, source: NodeId, target: NodeId, size: int, conversation: str) -> bool:
        """Object-copy ``conversation``: :meth:`notify` in the RELOCATION class."""
        return self.notify(source, target, size, conversation, MessageClass.RELOCATION)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Counter snapshot for metrics export."""
        return {
            "rpc_calls": float(self.calls),
            "rpc_retries": float(self.retries),
            "rpc_timeouts": float(self.timeouts),
            "rpc_lost_acks": float(self.lost_acks),
            "oneway_dropped": float(self.oneway_dropped),
            "notify_retransmits": float(self.notify_retransmits),
            "bulk_retransmits": float(self.bulk_retransmits),
            "update_pushes": float(self.update_pushes),
            "update_retransmits": float(self.update_retransmits),
            "update_push_failures": float(self.update_push_failures),
            "update_push_duplicates": float(self.update_push_duplicates),
            "dedup_entries": float(len(self.dedup)),
            "dedup_hits": float(self.dedup.hits),
            "dedup_evictions": float(self.dedup.evictions),
        }
