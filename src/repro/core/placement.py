"""The replica placement algorithm (Figure 3, ``DecidePlacement``).

Each host runs this autonomously every placement interval, using only its
local control state (Section 4.1): per-object access counts over
preference paths, its replica affinities, and its own load estimates.
Per object, in order:

1. **Drop**: if the unit access rate ``cnt(s,x)/aff(x)`` (normalised to
   requests/sec over the observation window) is below the deletion
   threshold ``u``, one affinity unit is dropped via ``ReduceAffinity``
   (the redirector arbitrates so the last replica system-wide survives).
   Consecutive objects whose last unit goes form a *run*, arbitrated by
   one ``RequestDrop`` before the round acts on any other object.
2. **Geo-migration**: otherwise, candidates ``p`` appearing on more than
   ``MIGR_RATIO`` of the object's preference paths are offered the object
   farthest-first; the first to accept receives one affinity unit.
3. **Geo-replication**: if not migrated and the unit access rate exceeds
   the replication threshold ``m``, candidates above ``REPL_RATIO`` are
   offered a replica, again farthest-first.

If the host is in offloading mode and the pass moved nothing, the bulk
``Offload`` protocol (Figure 5, :mod:`repro.core.offload`) runs.

The engine does no I/O: every round is a generator that yields its
control conversations as :mod:`repro.core.runtime` messages and is sent
their answers by the runtime driving it.

Access counts reset at the end of every run ("since the last execution of
the replica placement algorithm").  Outgoing moves update the host's
lower-bound load estimate using Theorems 1/3, mirroring how incoming
moves bump the recipient's upper bound in ``CreateObj``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.offload import run_offload
from repro.core.runtime import AffinityReduced, CreateObj, ReplicaCreated, RequestDrop
from repro.load.bounds import (
    migration_source_max_decrease,
    replication_source_max_decrease,
)
from repro.obs.records import OffloadRecord, PlacementRecord
from repro.types import NodeId, ObjectId, PlacementAction, PlacementReason, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.host import HostServer
    from repro.core.runtime import Step, SystemPort


class AffinityOutcome(enum.Enum):
    """Result of a ``ReduceAffinity`` attempt."""

    REDUCED = "reduced"  # affinity decremented, replica remains
    DROPPED = "dropped"  # last affinity unit removed, replica gone
    REFUSED = "refused"  # redirector vetoed dropping the last replica


class PlacementEngine:
    """Runs DecidePlacement / ReduceAffinity on behalf of hosts.

    ``system`` is any :class:`~repro.core.runtime.SystemPort`: the
    simulated :class:`~repro.core.protocol.HostingSystem` or the live
    runtime's :class:`~repro.live.system.LiveSystem`.  Its two entry
    points are protocol steps (generators over the runtime messages), so
    the decision logic is identical in both runtimes; only the loop
    that answers the messages differs.
    """

    def __init__(self, system: "SystemPort") -> None:
        self._system = system

    # ------------------------------------------------------------------
    # ReduceAffinity (Figure 3, bottom)
    # ------------------------------------------------------------------

    def reduce_affinity(
        self,
        node: NodeId,
        obj: ObjectId,
        *,
        shed_bound: float | None = None,
        record_drop: bool = True,
    ) -> "Step[AffinityOutcome]":
        """Drop one affinity unit of ``obj`` on ``node``.

        When the local affinity exceeds 1 the host simply decrements it
        and informs the redirector.  At affinity 1 the host must ask the
        redirector for permission: the redirector refuses if this is the
        object's last replica ("disallowing the last one"), otherwise it
        deregisters the replica *before* the host drops the bytes.

        ``shed_bound``, if given, is the Theorem 1/3 maximum load decrease
        recorded against the host's lower-bound estimate (used when the
        reduction is part of a migration or offload).
        """
        system = self._system
        host = system.hosts[node]
        affinity = host.store.affinity(obj)
        if affinity > 1:
            new_affinity = host.store.reduce(obj)
            yield AffinityReduced(node, obj, new_affinity)
            outcome = AffinityOutcome.REDUCED
        else:
            # Intention-to-drop arbitration with the redirector.
            (approved,) = yield from self._arbitrate(node, (obj,))
            if not approved:
                return AffinityOutcome.REFUSED
            self._drop(host, obj, record_drop)
            outcome = AffinityOutcome.DROPPED
        if shed_bound is not None:
            host.estimator.note_shed(shed_bound, system.clock.now)
        return outcome

    def _arbitrate(self, node: NodeId, run) -> "Step[list[bool | None]]":
        """``RequestDrop`` for ``run``.  A copy the arbiter does not list
        (``None``: its registration gave up, or an approval's answer was
        lost) is still held at affinity 1: register it again, to be judged
        like any other next round."""
        approvals = yield RequestDrop(node, tuple(run))
        for obj, approved in zip(run, approvals):
            if approved is None:
                yield ReplicaCreated(obj, node, 1)
        return approvals

    def _drop(self, host: "HostServer", obj: ObjectId, record: bool) -> None:
        """Remove an approved last affinity unit of ``obj`` from ``host``."""
        host.store.drop(obj)
        host.clear_object_state(obj)
        if record:
            self._system.record_placement(
                PlacementAction.DROP,
                PlacementReason.GEO,
                obj,
                source=host.node,
                target=None,
            )

    # ------------------------------------------------------------------
    # DecidePlacement (Figure 3)
    # ------------------------------------------------------------------

    def run_host(self, node: NodeId, now: Time) -> "Step[bool]":
        """One placement round for ``node``; returns True if anything moved."""
        system = self._system
        host = system.hosts[node]
        elapsed = now - host.last_placement_time
        if elapsed <= 0:
            return False
        if host.relocations_frozen:
            # Footnote 2: too many consecutive measurement intervals
            # contained relocations; halt this round (without resetting
            # the observation window) so a clean measurement can land.
            return False
        config = system.config
        host.update_mode()
        moved = False
        relieved = False
        # The pending run: cold objects at affinity 1 and their unit
        # rates, whose drops are arbitrated together before anything else
        # moves.
        run: list[ObjectId] = []
        rates: list[float] = []
        for obj in host.store.objects():
            if obj not in host.store:
                continue  # removed earlier in this very round
            affinity = host.store.affinity(obj)
            total = host.total_access_count(obj)
            unit_rate = total / affinity / elapsed
            cold = unit_rate < config.deletion_threshold
            if cold and affinity == 1:
                run.append(obj)
                rates.append(unit_rate)
                continue
            if run:
                approvals = yield from self._arbitrate(node, run)
                moved |= self._apply_drops(host, run, rates, approvals)
                run = []
                rates = []
            if cold:
                outcome = yield from self.reduce_affinity(node, obj)
                self._trace_drop(node, obj, outcome, affinity, unit_rate)
                moved = True  # affinity > 1: a plain decrement, never refused
                continue
            # Only a geo move reads the other nodes' counts: expand its paths.
            counts = host.object_access_counts(obj)
            if (yield from self._try_geo_move(
                host, obj, affinity, counts, total, unit_rate
            )):
                moved = True
                relieved = True
        if run:
            approvals = yield from self._arbitrate(node, run)
            moved |= self._apply_drops(host, run, rates, approvals)
        # Figure 3 gates Offload on "no objects were dropped, migrated or
        # replicated".  We deliberately exclude drops from the gate: a
        # dropped affinity unit had a unit access rate below u and sheds
        # essentially no load, and a saturated host with a rotating tail
        # of near-zero-rate replicas would otherwise never reach its
        # relief valve (see DESIGN.md fidelity notes).
        if host.offloading and not relieved:
            yield from run_offload(system, self, host, now, elapsed)
        elif system.tracer is not None:
            # The gate evaluation itself is a protocol decision: record
            # why Offload did *not* run this round (run_offload records
            # the rounds that do run).
            system.tracer.record(
                OffloadRecord(
                    node=node,
                    offloading=host.offloading,
                    relieved=relieved,
                    ran=False,
                    recipient=None,
                    moved=0,
                    reason="relieved" if host.offloading else "not-offloading",
                    lower_load=host.lower_load,
                    low_watermark=host.low_watermark,
                )
            )
        host.reset_access_counts(now)
        return moved

    def _apply_drops(
        self,
        host: "HostServer",
        run: list[ObjectId],
        rates: list[float],
        approvals: list[bool | None],
    ) -> bool:
        """Apply a run's approvals in store order.  True if anything was
        dropped."""
        node = host.node
        tracer = self._system.tracer
        dropped = False
        for obj, approved, unit_rate in zip(run, approvals, rates):
            if approved:
                self._drop(host, obj, True)
                dropped = True
            if tracer is not None:
                outcome = AffinityOutcome.DROPPED if approved else AffinityOutcome.REFUSED
                self._trace_drop(node, obj, outcome, 1, unit_rate)
        return dropped

    def _trace_drop(
        self,
        node: NodeId,
        obj: ObjectId,
        outcome: AffinityOutcome,
        affinity: int,
        unit_rate: float,
    ) -> None:
        tracer = self._system.tracer
        if tracer is not None:
            tracer.record(
                PlacementRecord(
                    node=node,
                    obj=obj,
                    action="drop",
                    outcome=outcome.value,
                    affinity=affinity,
                    unit_rate=unit_rate,
                    threshold=self._system.config.deletion_threshold,
                )
            )

    def _try_geo_move(
        self,
        host: "HostServer",
        obj: ObjectId,
        affinity: int,
        counts: dict[NodeId, int],
        total: int,
        unit_rate: float,
    ) -> "Step[bool]":
        """Attempt geo-migration, then geo-replication.  True if moved."""
        system = self._system
        config = system.config
        tracer = system.tracer
        node = host.node
        obj_load = host.meter.object_load(obj)
        unit_load = obj_load / affinity

        def trace(action: str, outcome: str, threshold: float,
                  candidates: list[NodeId], target: NodeId | None) -> None:
            if tracer is not None:
                tracer.record(
                    PlacementRecord(
                        node=node,
                        obj=obj,
                        action=action,
                        outcome=outcome,
                        affinity=affinity,
                        unit_rate=unit_rate,
                        threshold=threshold,
                        candidates=tuple(candidates),
                        target=target,
                    )
                )

        migration_candidates = list(
            system.routes.farthest_first(
                node,
                [
                    p
                    for p, count in counts.items()
                    if p != node and count / total > config.migr_ratio
                ],
            )
        )
        for candidate in migration_candidates:
            if (yield CreateObj(
                node,
                candidate,
                PlacementAction.MIGRATE,
                obj,
                unit_load,
                PlacementReason.GEO,
            )):
                trace(
                    "migrate", "accepted", config.migr_ratio,
                    migration_candidates, candidate,
                )
                # The source-side affinity reduction is part of the
                # migration itself, not a separate drop event.
                yield from self.reduce_affinity(
                    node,
                    obj,
                    shed_bound=migration_source_max_decrease(obj_load, affinity),
                    record_drop=False,
                )
                return True
        if migration_candidates:
            # Every candidate path was offered and refused.
            trace("migrate", "refused", config.migr_ratio, migration_candidates, None)

        if unit_rate > config.replication_threshold:
            replication_candidates = list(
                system.routes.farthest_first(
                    node,
                    [
                        p
                        for p, count in counts.items()
                        if p != node and count / total > config.repl_ratio
                    ],
                )
            )
            for candidate in replication_candidates:
                if (yield CreateObj(
                    node,
                    candidate,
                    PlacementAction.REPLICATE,
                    obj,
                    unit_load,
                    PlacementReason.GEO,
                )):
                    trace(
                        "replicate", "accepted", config.replication_threshold,
                        replication_candidates, candidate,
                    )
                    host.estimator.note_shed(
                        replication_source_max_decrease(obj_load), system.clock.now
                    )
                    return True
            trace(
                "replicate",
                "refused" if replication_candidates else "no-candidate",
                config.replication_threshold,
                replication_candidates,
                None,
            )
        return False
