"""Anti-entropy repair: periodic digest exchange and targeted re-push.

The repair loop the paper's asynchronous update model implies (and Sec. 5
cites via Demers et al.'s epidemic work): propagation is best-effort
under faults, so a background daemon must eventually reconcile whatever
drops, partitions, and crashes left divergent.  Each round the daemon
walks every written object's (primary, replica) pairs, exchanges a
version digest — one entry per object the pair shares — over the faulted
RPC layer, and re-pushes only the objects the digest shows behind.

Digests are small (:data:`DIGEST_ENTRY_BYTES` per object plus the
control-message floor) so the overhead of a quiescent system stays
bounded; the expensive full-object pushes happen only for actual
divergence.  A digest exchange that itself fails (partitioned or crashed
replica) is counted and retried next round — anti-entropy never gives
up, which is what closes divergence windows after a partition heals.

:meth:`AntiEntropyDaemon.sync_host` is the targeted variant the failure
detector triggers when it marks a host back *up*: one immediate pass over
just that host's pairs, so recovery does not wait out a full period.
"""

from __future__ import annotations

from repro.core.protocol import HostingSystem
from repro.errors import ConsistencyError
from repro.obs.records import AntiEntropyRecord
from repro.sim.process import PeriodicProcess
from repro.types import NodeId, ObjectId, Time

#: Bytes per (object id, version) digest entry.
DIGEST_ENTRY_BYTES = 12


class AntiEntropyDaemon:
    """Periodically reconciles replicas against their primaries."""

    def __init__(self, system: HostingSystem, *, interval: Time) -> None:
        if interval <= 0:
            raise ConsistencyError(
                f"anti-entropy interval must be positive, got {interval}"
            )
        self._system = system
        self.interval = interval
        self._process: PeriodicProcess | None = None
        #: Periodic rounds performed.
        self.rounds = 0
        #: Pairwise digest round trips attempted.
        self.digest_exchanges = 0
        #: Digest round trips that failed (retried next round).
        self.digest_failures = 0
        #: Divergent objects successfully re-pushed.
        self.repushes = 0
        #: Digest traffic (both directions) in bytes.
        self.digest_bytes = 0
        #: Full-object re-push traffic in bytes.
        self.repush_bytes = 0
        #: Targeted syncs triggered by host recovery.
        self.cold_syncs = 0

    def start(self) -> None:
        if self._process is not None:
            raise ConsistencyError("anti-entropy daemon already started")
        self._process = PeriodicProcess(
            self._system.sim, self.interval, self._tick
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _pairs(
        self, only_replica: NodeId | None = None
    ) -> dict[tuple[NodeId, NodeId], list[ObjectId]]:
        """(primary, replica) pairs over the written working set.

        Objects still at version 0 are skipped: a fresh copy is current
        by definition, so they cannot diverge and would only pad the
        digests.
        """
        system = self._system
        manager = system.consistency_plane.manager
        pairs: dict[tuple[NodeId, NodeId], list[ObjectId]] = {}
        for obj in manager.written_objects():
            primary = manager.primary(obj)
            for host in system.redirectors.for_object(obj).replica_hosts(obj):
                if host == primary:
                    continue
                if only_replica is not None and host != only_replica:
                    continue
                pairs.setdefault((primary, host), []).append(obj)
        return pairs

    def _tick(self, now: Time) -> None:
        self.rounds += 1
        self._sync(self._pairs(), now)

    def sync_host(self, node: NodeId, now: Time) -> None:
        """Immediately reconcile every pair involving replica ``node``.

        Triggered by the failure detector marking the host back up, so a
        recovered (or partition-healed) replica converges without
        waiting for the next periodic round.
        """
        self.cold_syncs += 1
        self._sync(self._pairs(only_replica=node), now)

    def _sync(
        self,
        pairs: dict[tuple[NodeId, NodeId], list[ObjectId]],
        now: Time,
    ) -> None:
        system = self._system
        plane = system.consistency_plane
        manager = plane.manager
        for (primary, replica), objs in sorted(pairs.items()):
            if not system.hosts[primary].available:
                # A crashed primary cannot answer digests; the pair
                # waits for recovery.
                continue
            digest = system.control_bytes + DIGEST_ENTRY_BYTES * len(objs)
            outcome = system.rpc.call(
                primary,
                replica,
                "Digest",
                request_bytes=digest,
                response_bytes=digest,
                target_alive=system.hosts[replica].available,
            )
            self.digest_exchanges += 1
            self.digest_bytes += 2 * digest
            if not outcome.acked:
                self.digest_failures += 1
                self._trace(primary, replica, len(objs), 0, 0, ok=False)
                continue
            divergent = 0
            repushed = 0
            for obj in objs:
                if manager.version_or_default(
                    obj, replica
                ) >= manager.primary_version(obj):
                    continue
                divergent += 1
                if manager.repush(obj, replica):
                    repushed += 1
                    self.repush_bytes += system.object_size
                plane.unsuppress(obj, replica)
            self.repushes += repushed
            if divergent:
                self._trace(primary, replica, len(objs), divergent, repushed)

    def _trace(
        self,
        primary: NodeId,
        replica: NodeId,
        objects: int,
        divergent: int,
        repushed: int,
        *,
        ok: bool = True,
    ) -> None:
        tracer = self._system.tracer
        if tracer is not None:
            tracer.record(
                AntiEntropyRecord(
                    primary=primary,
                    replica=replica,
                    objects=objects,
                    divergent=divergent,
                    repushed=repushed,
                    ok=ok,
                )
            )
