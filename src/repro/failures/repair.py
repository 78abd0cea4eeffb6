"""Replica repair: re-replicating objects stranded on crashed hosts.

The paper's protocol replicates for *performance*; nothing in it restores
an object whose only replica sits on a crashed host — such an object is
simply unavailable until the host returns.  :class:`RepairDaemon` closes
that gap.  When the failure detector marks a host down, the daemon
records the moment each of that host's objects lost its last *live*
replica.  Every repair interval it re-replicates the still-stranded ones:
the object's bytes are restored from the service's stable store (modelled
at the board/redirector node) to a live host with storage room, the
redirector registers the new copy, and the object's unavailability
window — crash detection to repair — is accumulated into the
``unavailability_seconds`` metric.

A window also closes without a repair when a crashed host recovers first
(the detector calls :meth:`on_host_up`); re-replication only pays its
relocation bytes for objects that actually need it.

The crashed host keeps its (registered, masked) replica throughout, so
the registry-subset invariant is untouched: when the host returns, the
object briefly has an extra replica, which the normal deletion-threshold
machinery then trims like any other cold copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.faults import FaultConfig
from repro.obs.records import RepairRecord
from repro.sim.process import PeriodicProcess
from repro.types import NodeId, ObjectId, PlacementAction, PlacementReason, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


class RepairDaemon:
    """Re-replicates objects whose last live replica crashed."""

    def __init__(self, system: "HostingSystem", config: FaultConfig) -> None:
        self._system = system
        self._config = config
        self._process: PeriodicProcess | None = None
        #: Detection time of each currently-unavailable object.
        self.unavailable_since: dict[ObjectId, Time] = {}
        #: Repairs performed (one re-replication each).
        self.repairs = 0
        #: Closed unavailability windows, in object-seconds.
        self.unavailability_seconds = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._process = PeriodicProcess(
            self._system.sim, self._config.repair_interval, self._tick
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # Detector callbacks
    # ------------------------------------------------------------------

    def on_host_down(self, node: NodeId, now: Time) -> None:
        """A host was marked down: find objects it stranded."""
        for service in self._system.redirectors.services:
            for obj in service.objects_on(node):
                if obj in self.unavailable_since:
                    continue
                if not service.available_replica_hosts(obj):
                    self.unavailable_since[obj] = now

    def on_host_up(self, node: NodeId, now: Time) -> None:
        """A host was marked back up: its objects may be live again."""
        for obj in list(self.unavailable_since):
            service = self._system.redirectors.for_object(obj)
            if service.available_replica_hosts(obj):
                self._close_window(obj, now)

    def _close_window(self, obj: ObjectId, now: Time) -> float:
        window = now - self.unavailable_since.pop(obj)
        self.unavailability_seconds += window
        return window

    # ------------------------------------------------------------------
    # Repair rounds
    # ------------------------------------------------------------------

    def _tick(self, now: Time) -> None:
        if not self.unavailable_since:
            return
        system = self._system
        for obj in sorted(self.unavailable_since):
            service = system.redirectors.for_object(obj)
            if service.available_replica_hosts(obj):
                # A replica host recovered between detection and this
                # round; no relocation needed.
                self._close_window(obj, now)
                continue
            target = self._pick_target(obj)
            if target is None:
                continue  # no live host has room; retry next round
            origin = system.board_node
            if not system.rpc.bulk(origin, target, system.object_size, "RepairCopy"):
                continue  # the window stays open until the next round
            affinity = system.hosts[target].store.add(obj)
            if not system.rpc.notify(target, service.node, system.control_bytes, "RepairNotify"):
                continue  # the copy stays unlisted until its drop request
            service.replica_created(obj, target, affinity)
            window = self._close_window(obj, now)
            self.repairs += 1
            system.record_placement(
                PlacementAction.REPLICATE,
                PlacementReason.REPAIR,
                obj,
                source=origin,
                target=target,
                copied_bytes=system.object_size,
            )
            if system.tracer is not None:
                system.tracer.record(
                    RepairRecord(
                        obj=obj,
                        target=target,
                        origin=origin,
                        unavailable_seconds=window,
                    )
                )

    def _pick_target(self, obj: ObjectId) -> NodeId | None:
        """A live host with room for ``obj``: most idle first, by the
        board's (expiry-filtered) reports, then any live host by id."""
        system = self._system
        service = system.redirectors.for_object(obj)
        registered = set(service.replica_hosts(obj))

        def eligible(node: NodeId) -> bool:
            host = system.hosts[node]
            return (
                host.available
                and node not in registered
                and obj not in host.store  # an unlisted copy: its drop lists it
                and host.has_storage_room(obj)
            )

        for node, _ in system.board.candidates(exclude=None, now=system.sim.now):
            if eligible(node):
                return node
        for node in sorted(system.hosts):
            if eligible(node):
                return node
        return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def unavailability_seconds_total(self, until: Time) -> float:
        """Closed windows plus windows still open at ``until``."""
        open_windows = sum(
            max(0.0, until - since) for since in self.unavailable_since.values()
        )
        return self.unavailability_seconds + open_windows
