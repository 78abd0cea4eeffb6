"""The replica-creation handshake (Figure 4, ``CreateObj``).

Executed by the *candidate* host ``p`` when host ``s`` asks it to accept
a migration or replication of object ``x``.  The request carries the unit
load ``load(x_s)/aff(x_s)`` so the candidate can bound its post-accept
load using Theorems 2/4:

* any request is refused while the candidate's (upper-estimate) load is
  at or above the low watermark;
* a **migration** is additionally refused if the upper-bound post-move
  load ``load(p) + 4·ℓ/aff`` would exceed the high watermark — this
  breaks the vicious cycle where an object load-migrates away from a
  locally overloaded site only to geo-migrate straight back;
* a **replication** has no such second check: "overloading a recipient
  temporarily may be necessary in this case in order to bootstrap the
  replication process", and each replication moves the system to a new
  state so no cycle arises.

On accept, the candidate copies the object (or increments its existing
replica's affinity), notifies the redirector *after* the copy exists
(preserving the registry-subset invariant), and bumps its own upper-bound
load estimate by ``4·ℓ/aff``.

All control datagrams and the object-copy bytes are charged to the
backbone via the hosting system's network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.runtime import ReplicaCreated
from repro.load.bounds import replication_target_max_increase
from repro.obs.records import CreateObjRecord
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementReason,
    Time,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.host import HostServer
    from repro.core.protocol import HostingSystem


def decide_create_obj(
    host: "HostServer",
    action: PlacementAction,
    obj: ObjectId,
    unit_load: float,
    *,
    replica_count: Callable[[], int] | None = None,
    policy: object | None = None,
) -> str | None:
    """The candidate-side accept/refuse decision of Figure 4.

    Pure protocol logic — no I/O, no clock — shared verbatim by the
    simulated :func:`handle_create_obj` and the live runtime's CreateObj
    endpoint (the transport seam of :mod:`repro.core.runtime`).  Returns
    the refusal reason, or ``None`` to accept.  ``replica_count`` is only
    consulted when a consistency ``policy`` bounds the replica set.
    """
    if not host.available:
        return "host-down"
    if (
        policy is not None
        and action is PlacementAction.REPLICATE
        and obj not in host.store
        and replica_count is not None
        and not policy.may_replicate(obj, replica_count())
    ):
        # Section 5: category-3 objects keep a bounded replica set; the
        # protocol is unchanged except that excess replications are
        # refused (migrations never change the replica count).
        return "replica-limit"
    if host.upper_load > host.low_watermark:
        return "low-watermark"
    if not host.has_storage_room(obj):
        # Storage is the second component of the Section 2.1 vector load
        # metric: a host whose store is full refuses new copies outright.
        return "storage-full"
    if (
        action is PlacementAction.MIGRATE
        and host.upper_load + replication_target_max_increase(unit_load, 1)
        > host.high_watermark
    ):
        return "migration-headroom"
    return None


def apply_create_obj(
    host: "HostServer", obj: ObjectId, unit_load: float, now: Time
) -> int:
    """Candidate-side commit: store the copy and bump the upper bound.

    Returns the replica's new affinity.  The caller is responsible for
    having moved the object's bytes (when the store lacked a copy) and
    for notifying the redirector *after* this commit, preserving the
    registry-subset invariant.
    """
    affinity = host.store.add(obj)
    host.estimator.note_acquired(
        replication_target_max_increase(unit_load, 1), now
    )
    return affinity


def handle_create_obj(
    system: "HostingSystem",
    source: NodeId,
    candidate: NodeId,
    action: PlacementAction,
    obj: ObjectId,
    unit_load: float,
    reason: PlacementReason,
) -> bool:
    """Run the CreateObj handshake; return True iff the candidate accepted.

    ``unit_load`` is ``load(x_s)/aff(x_s)`` measured at the source.
    Traffic is accounted whether or not the request is accepted (the
    request/refusal datagrams still cross the backbone).
    """
    if action not in (PlacementAction.MIGRATE, PlacementAction.REPLICATE):
        raise ValueError(f"CreateObj only handles MIGRATE/REPLICATE, got {action}")
    control = system.control_bytes
    host = system.hosts[candidate]
    # Request datagram s -> p and response p -> s, over the RPC layer: one
    # attempt under a fault plane, a plain pair of accounted datagrams
    # without one.
    outcome = system.rpc.call(
        source,
        candidate,
        "CreateObj",
        request_bytes=control,
        response_bytes=control,
        target_alive=host.available,
    )
    tracer = system.tracer

    def verdict(accepted: bool, reason: str) -> bool:
        if tracer is not None:
            tracer.record(
                CreateObjRecord(
                    source=source,
                    candidate=candidate,
                    obj=obj,
                    action=action.value,
                    accepted=accepted,
                    reason=reason,
                    unit_load=unit_load,
                    upper_load=host.upper_load,
                    low_watermark=host.low_watermark,
                    high_watermark=host.high_watermark,
                )
            )
        return accepted

    if not outcome.executed:
        # The request never reached the candidate (it was dropped, or the
        # candidate is down): no state changed anywhere.
        return verdict(False, "rpc-timeout")
    refusal = decide_create_obj(
        host,
        action,
        obj,
        unit_load,
        replica_count=lambda: system.redirectors.for_object(obj).replica_count(obj),
        policy=system.consistency_policy,
    )
    if refusal is not None:
        return verdict(False, refusal)

    copied_bytes = 0 if obj in host.store else system.object_size
    # Copy the object's bytes from the source host across the backbone; a
    # lost transfer applies nothing.
    if copied_bytes and not system.rpc.bulk(source, candidate, copied_bytes, "ObjectCopy"):
        return verdict(False, "copy-failed")
    affinity = apply_create_obj(host, obj, unit_load, system.clock.now)
    # Register the new copy / affinity *after* the fact.  If that gives up
    # the copy stays, unlisted, until its drop request lists it again.
    if not system.notice(ReplicaCreated(obj, candidate, affinity)):
        return verdict(False, "register-failed")
    system.record_placement(
        action, reason, obj, source=source, target=candidate, copied_bytes=copied_bytes
    )
    if not outcome.acked:
        # The candidate accepted and acted, but its acceptance response
        # never reached the source: the source sees a failure while the
        # replica exists.  The registry already knows about the copy, so
        # the system stays consistent with one extra (harmless) replica;
        # report the handshake as failed so the source does not also
        # reduce its own affinity.
        return verdict(False, "lost-ack")
    return verdict(True, "accepted")
