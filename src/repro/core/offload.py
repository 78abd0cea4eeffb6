"""Bulk host offloading (Figure 5, ``Offload``).

When a host is in offloading mode and a DecidePlacement pass moved
nothing, it sheds objects *en masse* to a single under-loaded recipient —
the key responsiveness feature the bound theorems enable: instead of
moving one object and waiting a measurement interval to observe the
effect, the host updates a running lower-bound estimate of its own load
(Theorems 1/3) and an upper-bound estimate of the recipient's load
(Theorems 2/4) after each transfer, and keeps going until either estimate
crosses the low watermark.

Objects are examined in decreasing order of their *foreign-request*
fraction (the best candidate node's share of the object's preference
paths): objects mostly requested from elsewhere are the cheapest to evict
proximity-wise.  Objects whose unit access rate exceeds the replication
threshold ``m`` are only replicated, never load-migrated, because
migrating them out "might undo a previous geo-replication".

Like the placement engine, :func:`run_offload` is a protocol step: a
generator that yields its conversations (:class:`FindRecipient`,
:class:`CreateObj`, the source-side ``ReduceAffinity``) and is sent
their answers by the runtime's drive loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.runtime import CreateObj, FindRecipient
from repro.load.bounds import (
    migration_source_max_decrease,
    replication_source_max_decrease,
    replication_target_max_increase,
)
from repro.obs.records import OffloadRecord
from repro.types import NodeId, ObjectId, PlacementAction, PlacementReason, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.host import HostServer
    from repro.core.placement import PlacementEngine
    from repro.core.runtime import Step, SystemPort

#: How many board candidates an offloading host probes before giving up
#: (each probe is a control round trip) — one bound for both planes'
#: answer to :class:`FindRecipient`.
MAX_RECIPIENT_PROBES = 5


def _foreign_fraction(
    host: "HostServer", obj: ObjectId
) -> float:
    """Highest share of the object's paths any *other* node appears on."""
    counts = host.object_access_counts(obj)
    total = counts.get(host.node, 0)
    if total == 0:
        return 0.0
    best = max(
        (count for node, count in counts.items() if node != host.node),
        default=0,
    )
    return best / total


def run_offload(
    system: "SystemPort",
    engine: "PlacementEngine",
    host: "HostServer",
    now: Time,
    elapsed: float,
) -> "Step[int]":
    """Shed objects from ``host`` to one recipient; return objects moved."""

    def trace(recipient: NodeId | None, moved: int, reason: str) -> None:
        if system.tracer is not None:
            system.tracer.record(
                OffloadRecord(
                    node=host.node,
                    offloading=host.offloading,
                    relieved=host.lower_load <= host.low_watermark,
                    ran=True,
                    recipient=recipient,
                    moved=moved,
                    reason=reason,
                    lower_load=host.lower_load,
                    low_watermark=host.low_watermark,
                )
            )

    # Recipient discovery consults the load board as of ``now`` so
    # expired (crashed-host) reports are not trusted.  The recipient
    # "responds to the requesting host with its load value": the running
    # upper-bound estimate starts from that response.
    probe = yield FindRecipient(host.node, now)
    if probe is None:
        trace(None, 0, "no-recipient")
        return 0
    recipient, recipient_load, recipient_low_watermark = probe
    config = system.config

    ordered = sorted(
        host.store.objects(),
        key=lambda obj: (-_foreign_fraction(host, obj), obj),
    )
    moved = 0
    stop_reason = "exhausted"
    for obj in ordered:
        if host.lower_load <= host.low_watermark:
            stop_reason = "source-relieved"
            break
        if recipient_load >= recipient_low_watermark:
            stop_reason = "recipient-budget"
            break
        if obj not in host.store:
            continue
        affinity = host.store.affinity(obj)
        total = host.total_access_count(obj)
        unit_rate = total / affinity / elapsed if elapsed > 0 else 0.0
        obj_load = host.meter.object_load(obj)
        unit_load = obj_load / affinity
        if unit_rate <= config.replication_threshold:
            accepted = yield CreateObj(
                host.node,
                recipient,
                PlacementAction.MIGRATE,
                obj,
                unit_load,
                PlacementReason.LOAD,
            )
            if not accepted:
                stop_reason = "refused"
                break
            yield from engine.reduce_affinity(
                host.node,
                obj,
                shed_bound=migration_source_max_decrease(obj_load, affinity),
                record_drop=False,
            )
        else:
            accepted = yield CreateObj(
                host.node,
                recipient,
                PlacementAction.REPLICATE,
                obj,
                unit_load,
                PlacementReason.LOAD,
            )
            if not accepted:
                stop_reason = "refused"
                break
            host.estimator.note_shed(
                replication_source_max_decrease(obj_load), now
            )
        recipient_load += replication_target_max_increase(unit_load, 1)
        moved += 1
    trace(recipient, moved, stop_reason)
    return moved
