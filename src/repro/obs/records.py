"""Structured decision records emitted by the protocol tracing layer.

One dataclass per protocol decision point, mirroring the quantities the
paper's figures reason about:

* :class:`ChooseReplicaRecord` — one Figure 2 ``ChooseReplica`` run, with
  the two unit-request-count ratios that drove the comparison.
* :class:`PlacementRecord` — one Figure 3 ``DecidePlacement`` verdict for
  one object (drop / geo-migrate / geo-replicate), with the threshold it
  was judged against and the farthest-first candidate list.
* :class:`CreateObjRecord` — one Figure 4 ``CreateObj`` handshake, with
  the candidate's watermark values and the accept/refuse reason.
* :class:`OffloadRecord` — one Figure 5 ``Offload`` gate evaluation or
  round, with the recipient, objects moved and why the round stopped.
* :class:`MessageRecord` — one backbone message (normally filtered to the
  control plane; see :class:`~repro.obs.tracer.DecisionTracer`).
* :class:`SimRunRecord` — one :meth:`Simulator.run` span, with the
  events-fired count and wall-clock duration (the simulator timing hook).
* :class:`RpcRecord` — one control RPC under an active fault plane, with
  its attempt count and executed/acked fate.
* :class:`FailureDetectRecord` — one failure-detector verdict (a host
  marked down via missed heartbeats or request timeouts, or back up).
* :class:`RepairRecord` — one repair-daemon re-replication of an object
  whose last live copy sat on a crashed host, with its unavailability
  window.
* :class:`UpdateRecord` — one provider write applied at an object's
  primary, with the propagation outcome (pushed now vs. queued for an
  epidemic flush).
* :class:`StaleReadRecord` — one request served from a replica behind
  the primary's version, and whether read-repair caught it up.
* :class:`AntiEntropyRecord` — one pairwise digest exchange that found
  divergence (or failed outright), with the repush outcome.

Every record carries a ``kind`` tag (class-level, stable — it is the
JSONL discriminator), a simulated ``time`` stamp and a global ``seq``
number; both are assigned by the tracer on ingest, so instrumentation
sites stay clock-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.types import NodeId, ObjectId, Time

#: Stable set of record kinds, in the JSONL discriminator vocabulary.
RECORD_KINDS = (
    "choose-replica",
    "placement",
    "create-obj",
    "offload",
    "message",
    "sim-run",
    "rpc",
    "failure-detect",
    "repair",
    "update",
    "stale-read",
    "anti-entropy",
)


@dataclass(slots=True)
class ChooseReplicaRecord:
    """One run of the Figure 2 request-distribution algorithm."""

    kind: ClassVar[str] = "choose-replica"

    obj: ObjectId
    gateway: NodeId
    #: The replica that won, or ``None`` when every replica was masked.
    chosen: NodeId | None
    #: "sole" | "closest" | "least-requested" | "unavailable".
    reason: str
    #: The closest replica ``p`` and its unit request count ``ratio1``.
    closest: NodeId | None = None
    closest_ratio: float | None = None
    #: The least-requested replica ``q`` and its ratio ``ratio2``.
    least: NodeId | None = None
    least_ratio: float | None = None
    #: The distribution constant ``C`` the comparison used.
    constant: float = 2.0
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class PlacementRecord:
    """One DecidePlacement verdict for one object on one host."""

    kind: ClassVar[str] = "placement"

    node: NodeId
    obj: ObjectId
    #: "drop" | "migrate" | "replicate".
    action: str
    #: drop: "reduced" | "dropped" | "refused";
    #: migrate/replicate: "accepted" | "refused" | "no-candidate".
    outcome: str
    affinity: int
    #: The normalised unit access rate (requests/sec) that was compared.
    unit_rate: float
    #: What it was compared against: ``u`` for drops, ``MIGR_RATIO`` for
    #: migrations, ``m`` for replications.
    threshold: float
    #: Candidate hosts in the farthest-first order they were offered.
    candidates: tuple[NodeId, ...] = ()
    #: The candidate that accepted, when one did.
    target: NodeId | None = None
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class CreateObjRecord:
    """One CreateObj handshake as seen by the candidate host."""

    kind: ClassVar[str] = "create-obj"

    source: NodeId
    candidate: NodeId
    obj: ObjectId
    #: "migrate" | "replicate".
    action: str
    accepted: bool
    #: "accepted" | "host-down" | "replica-limit" | "low-watermark" |
    #: "storage-full" | "migration-headroom".
    reason: str
    #: The unit load ``load(x_s)/aff(x_s)`` carried by the request.
    unit_load: float
    #: The candidate's upper-bound load estimate at decision time.
    upper_load: float
    low_watermark: float
    high_watermark: float
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class OffloadRecord:
    """One Offload gate evaluation (every placement round) or round."""

    kind: ClassVar[str] = "offload"

    node: NodeId
    #: Whether the host was in offloading mode at the gate.
    offloading: bool
    #: Whether the DecidePlacement pass had already shed load (which
    #: suppresses the bulk offload per Figure 3).
    relieved: bool
    #: Whether the Figure 5 bulk protocol actually ran.
    ran: bool
    recipient: NodeId | None
    moved: int
    #: Gate: "not-offloading" | "relieved"; round: "no-recipient" |
    #: "source-relieved" | "recipient-budget" | "refused" | "exhausted".
    reason: str
    lower_load: float = 0.0
    low_watermark: float = 0.0
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class MessageRecord:
    """One backbone message send (control plane by default)."""

    kind: ClassVar[str] = "message"

    source: NodeId
    target: NodeId
    hops: int
    size: int
    #: The :class:`~repro.network.message.MessageClass` value string.
    message_class: str
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class SimRunRecord:
    """One Simulator.run() span (the simulator timing hook)."""

    kind: ClassVar[str] = "sim-run"

    #: The horizon the run was asked to reach (``None`` = drain).
    until: Time | None
    #: Events fired during the run while tracing was attached.
    events_fired: int
    #: Wall-clock seconds the run took.
    wall_seconds: float
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class RpcRecord:
    """One control RPC conversation under an active fault plane."""

    kind: ClassVar[str] = "rpc"

    source: NodeId
    target: NodeId
    #: The :class:`~repro.network.message.MessageClass` value string.
    message_class: str
    #: Total request transmissions, including the first.
    attempts: int
    #: Whether the request reached a live target (side effect applied).
    executed: bool
    #: Whether the caller saw a response.  ``executed and not acked`` is
    #: a lost ack: the target acted but the caller observed a failure.
    acked: bool
    #: Its row of the retry table (:data:`repro.core.runtime.RETRIES`).
    conversation: str
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class FailureDetectRecord:
    """One failure-detector verdict about one host."""

    kind: ClassVar[str] = "failure-detect"

    node: NodeId
    #: True when the host was marked down, False when marked back up.
    down: bool
    #: "heartbeat" (missed-heartbeat deadline), "request-failures"
    #: (consecutive request timeouts) or "recovery" (heartbeat from a
    #: down-marked host).
    reason: str
    #: When the monitor last heard from the host (down verdicts only).
    last_seen: Time | None = None
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class RepairRecord:
    """One repair-daemon re-replication of an unavailable object."""

    kind: ClassVar[str] = "repair"

    obj: ObjectId
    #: The host that received the restored replica.
    target: NodeId
    #: The node whose stable store supplied the bytes.
    origin: NodeId
    #: Seconds the object had zero live replicas before this repair.
    unavailable_seconds: float
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class UpdateRecord:
    """One provider write applied at an object's primary."""

    kind: ClassVar[str] = "update"

    obj: ObjectId
    primary: NodeId
    #: The primary's version after this write.
    version: int
    #: Replicas refreshed by immediate propagation (0 under batching).
    propagated: int
    #: Whether the write was queued for an epidemic flush instead.
    pending: bool = False
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class StaleReadRecord:
    """One request served from a replica behind the primary's version."""

    kind: ClassVar[str] = "stale-read"

    obj: ObjectId
    #: The host that served the stale content.
    server: NodeId
    #: The version the replica held and the primary's current version.
    version: int
    primary_version: int
    #: Whether read-repair refreshed the replica after this serve.
    repaired: bool = False
    time: Time = 0.0
    seq: int = 0


@dataclass(slots=True)
class AntiEntropyRecord:
    """One pairwise digest exchange that found divergence or failed."""

    kind: ClassVar[str] = "anti-entropy"

    primary: NodeId
    replica: NodeId
    #: Objects summarised in the digest.
    objects: int
    #: Objects found behind the primary's version.
    divergent: int
    #: Divergent objects successfully re-pushed.
    repushed: int
    #: Whether the digest round trip itself succeeded.
    ok: bool = True
    time: Time = 0.0
    seq: int = 0
