"""Availability-aware continuous placement (not a registry strategy).

An alternative to the paper's load/proximity protocol: every interval it
re-solves placement for the hottest objects from what a real operator
could actually observe — the demand of the last window and the host
fleet's MTBF/MTTR.  Replica counts come from an availability target
(each object keeps the fewest replicas ``r`` with ``1-(1-a)^r`` at or
above the target, where ``a = mtbf/(mtbf+mttr)`` is per-host
availability) and replica *sites* from demand-weighted greedy k-median
(:func:`repro.optimal.multi_object.greedy_replica_set`).

No registry strategy names it and nothing in the package imports it: a
caller ``start()``s it after ``HostingSystem.start()`` and ``stop()``s it
after the drain.  Creations follow the repair-daemon sequence and removals
go through ``ReduceAffinity``, so the protocol's invariants hold for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.placement import AffinityOutcome
from repro.core.runtime import ReplicaCreated
from repro.errors import ConfigurationError
from repro.optimal.multi_object import greedy_replica_set
from repro.sim.process import PeriodicProcess
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementReason,
    Time,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


def replicas_for_availability(
    host_availability: float, target: float, *, max_replicas: int = 4
) -> int:
    """Fewest replicas whose joint availability reaches ``target``.

    ``1 - (1 - a)^r >= target`` solved for integer ``r``, clamped to
    ``[1, max_replicas]``.  A host availability at or above the target
    (or a degenerate ``a >= 1``) needs a single replica.
    """
    if not 0.0 < target < 1.0:
        raise ConfigurationError("availability target must be in (0, 1)")
    if host_availability >= 1.0 or host_availability >= target:
        return 1
    if host_availability <= 0.0:
        return max_replicas
    needed = math.log(1.0 - target) / math.log(1.0 - host_availability)
    return max(1, min(max_replicas, int(math.ceil(needed - 1e-12))))


class AvailabilityAwarePlacer:
    """Re-solves placement each interval from observed demand and MTBF."""

    def __init__(
        self,
        system: "HostingSystem",
        *,
        interval: float | None = None,
        availability_target: float = 0.999,
        mtbf: float | None = None,
        mttr: float | None = None,
        max_replicas: int = 4,
        top_objects: int = 64,
        min_requests: int = 4,
    ) -> None:
        if interval is not None and interval <= 0:
            raise ConfigurationError("placement interval must be positive")
        if top_objects < 1:
            raise ConfigurationError("must reconsider at least one object")
        self._system = system
        self._interval = (
            interval if interval is not None else system.config.placement_interval
        )
        self._target = availability_target
        self._max_replicas = max_replicas
        self._top_objects = top_objects
        self._min_requests = min_requests
        fault_config = (
            system.fault_plane.config if system.fault_plane is not None else None
        )
        if mtbf is None and fault_config is not None:
            mtbf = fault_config.mtbf
        if mttr is None and fault_config is not None:
            mttr = fault_config.mttr
        #: Per-host availability the replica-count rule assumes.
        self.host_availability = (
            mtbf / (mtbf + mttr)
            if mtbf is not None and mttr is not None and mtbf + mttr > 0
            else 1.0
        )
        self.target_replicas = replicas_for_availability(
            self.host_availability, availability_target, max_replicas=max_replicas
        )
        #: Serviced requests of the current window: obj -> gateway -> count.
        self._window: dict[ObjectId, dict[NodeId, int]] = {}
        self._process: PeriodicProcess | None = None
        #: Replicas created / removed by this placer (for tests and metrics).
        self.replications = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._system.served_observers.append(self.observe_served)
        self._process = PeriodicProcess(
            self._system.sim, self._interval, self._tick
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
        observers = self._system.served_observers
        if self.observe_served in observers:
            observers.remove(self.observe_served)

    # ------------------------------------------------------------------
    # Demand observation
    # ------------------------------------------------------------------

    def observe_served(
        self,
        obj: ObjectId,
        gateway: NodeId,
        server: NodeId,
        issued_at: Time,
        response_hops: int,
    ) -> None:
        """Served observer: accumulate serviced demand per (obj, gateway)."""
        per_gateway = self._window.setdefault(obj, {})
        per_gateway[gateway] = per_gateway.get(gateway, 0) + 1

    # ------------------------------------------------------------------
    # Placement rounds
    # ------------------------------------------------------------------

    def _tick(self, now: Time) -> None:
        window, self._window = self._window, {}
        ranked = sorted(
            window.items(),
            key=lambda item: (-sum(item[1].values()), item[0]),
        )
        for obj, demand in ranked[: self._top_objects]:
            if sum(demand.values()) < self._min_requests:
                break  # ranked by volume; everything below is colder
            self._reconcile(obj, demand)

    def _reconcile(self, obj: ObjectId, demand: dict[NodeId, int]) -> None:
        system = self._system
        service = system.redirectors.for_object(obj)
        current = set(service.replica_hosts(obj))
        candidates = [
            node
            for node, host in sorted(system.hosts.items())
            if host.available and (node in current or host.has_storage_room(obj))
        ]
        if not candidates:
            return
        count = min(self.target_replicas, len(candidates))
        desired = set(
            greedy_replica_set(demand, candidates, system.routes.distance, count)
        )
        # Never orphan the object: keep current replicas the greedy set
        # dropped only once the desired ones exist (adds before removes).
        for target in sorted(desired - current):
            self._create_replica(obj, target, current)
            current.add(target)
        for node in sorted(current - desired):
            self._remove_replica(service, obj, node)

    def _create_replica(self, obj: ObjectId, target: NodeId, current) -> None:
        system = self._system
        host = system.hosts[target]
        if obj in host.store or not host.has_storage_room(obj):
            return
        live = [n for n in sorted(current) if system.hosts[n].available]
        origin = (
            min(live, key=lambda n: (system.routes.distance(n, target), n))
            if live
            else system.board_node
        )
        if not system.rpc.bulk(origin, target, system.object_size, "ObjectCopy"):
            return
        affinity = system.hosts[target].store.add(obj)
        if not system.notice(ReplicaCreated(obj, target, affinity)):
            return
        self.replications += 1
        system.record_placement(
            PlacementAction.REPLICATE,
            PlacementReason.GEO,
            obj,
            source=origin,
            target=target,
            copied_bytes=system.object_size,
        )

    def _remove_replica(self, service, obj: ObjectId, node: NodeId) -> None:
        """Drop the whole replica via ReduceAffinity (one unit at a time)."""
        system = self._system
        if obj not in system.hosts[node].store:
            return
        for _ in range(max(1, service.affinity(obj, node))):
            outcome = system.drive(system.engine.reduce_affinity(node, obj))
            if outcome is AffinityOutcome.REFUSED:
                return
            if outcome is AffinityOutcome.DROPPED:
                self.drops += 1
                return
