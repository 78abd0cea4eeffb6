"""The consistency plane: Sec. 5 machinery wired into a running system.

This module is the integration seam the fault-hardening work needed: it
owns the primary-copy manager, the optional epidemic batcher and
anti-entropy daemon, the staleness bookkeeping, and the category-2/3
policy state, and it hangs off ``HostingSystem.consistency_plane`` the
same way the fault plane hangs off ``system.fault_plane``.

Responsibilities:

* **Writes** — :meth:`provider_write` applies a content-provider update
  at the object's primary and either propagates immediately (over the
  faulted RPC layer) or marks the object dirty for the next epidemic
  flush.

* **Staleness accounting** — the manager's version hooks keep a
  :class:`~repro.metrics.staleness.StalenessTracker` current, and a
  served observer checks every served request against the stale set
  (the redirector/host seam: a stale serve *is* a stale read).

* **Read-repair** — a detected stale serve schedules an immediate
  catch-up push, unless the object sits inside an epidemic flush window
  (reads there are expected stale; repairing them would defeat the
  batching) or a previous repair attempt against that replica failed
  (suppressed until anti-entropy or recovery clears it, so a partition
  does not trigger a repair storm).

* **Crash / recovery** — injector crash observers drop the crashed
  primary's queued epidemic propagation and its unmerged category-2
  counters (both are lost state, surfaced as metrics); detector
  recovery triggers a targeted anti-entropy sync and a category-2
  re-aggregation whose conservation invariant
  (``merged + pending + lost == served``) is checked on every pass.

* **Category policy** — with a non-trivial category mix, objects are
  classified once up front from a dedicated RNG stream and the
  resulting :class:`~repro.consistency.categories.ConsistencyPolicy`
  is installed as ``system.consistency_policy``, so CreateObj refuses
  category-3 replication past the limit exactly as before.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.consistency.antientropy import AntiEntropyDaemon
from repro.consistency.categories import Category, ConsistencyPolicy
from repro.consistency.config import ConsistencyConfig
from repro.consistency.epidemic import EpidemicBatcher
from repro.consistency.merge import CountingStats, merge_counts
from repro.consistency.primary_copy import PrimaryCopyManager
from repro.core.protocol import HostingSystem
from repro.errors import ConsistencyError
from repro.metrics.staleness import StalenessTracker
from repro.obs.records import StaleReadRecord, UpdateRecord
from repro.sim.process import PeriodicProcess
from repro.types import NodeId, ObjectId, Time


class ConsistencyPlane:
    """Owns and coordinates the Sec. 5 machinery for one system."""

    def __init__(
        self,
        system: HostingSystem,
        config: ConsistencyConfig,
        *,
        rng: random.Random,
    ) -> None:
        self._system = system
        self.config = config
        self.tracker = StalenessTracker()
        self.policy = ConsistencyPolicy(
            non_commuting_replica_limit=config.non_commuting_replica_limit
        )
        system.consistency_policy = self.policy
        #: Per-object counters for category-2 objects.
        self._stats: dict[ObjectId, CountingStats] = {}
        c1, c2, _ = config.category_mix
        if config.category_mix != (1.0, 0.0, 0.0):
            for obj in range(system.num_objects):
                draw = rng.random()
                if draw < c1:
                    continue  # STATIC is the policy default.
                if draw < c1 + c2:
                    self.policy.classify(obj, Category.COMMUTING)
                    self._stats[obj] = CountingStats(obj)
                else:
                    self.policy.classify(obj, Category.NON_COMMUTING)
        self.manager = PrimaryCopyManager(
            system, immediate=config.epidemic_interval is None
        )
        self.manager.on_version = self._on_version
        self.manager.on_drop = self._on_drop
        self.batcher: EpidemicBatcher | None = None
        self.antientropy: AntiEntropyDaemon | None = None
        self._merge_process: PeriodicProcess | None = None
        #: Category-2 tallies recorded but not yet merged at the board,
        #: keyed by serving host (lost wholesale if the host crashes).
        self._pending: dict[NodeId, Counter[ObjectId]] = {}
        #: (obj, host) pairs whose read-repair failed; suppressed until
        #: anti-entropy or host recovery clears them.
        self._repair_suppressed: set[tuple[ObjectId, NodeId]] = set()
        #: Provider writes accepted.
        self.writes = 0
        self.read_repair_attempts = 0
        self.read_repairs = 0
        #: Dirty objects whose queued epidemic propagation died with a
        #: crashed primary.
        self.epidemic_pending_lost = 0
        self.category2_served = 0
        self.category2_merges = 0
        self.category2_counts_lost = 0
        self.category2_reaggregations = 0
        #: Hosts that completed cold recovery while the plane was live.
        self.cold_recoveries = 0
        self._started = False
        self._stopped = False
        system.served_observers.append(self._on_served)
        system.crash_observers.append(self._on_host_lifecycle)

    @property
    def system(self) -> HostingSystem:
        return self._system

    @property
    def has_category2(self) -> bool:
        return bool(self._stats)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ConsistencyError("consistency plane already started")
        self._started = True
        system = self._system
        config = self.config
        if config.epidemic_interval is not None:
            self.batcher = EpidemicBatcher(
                system.sim, self.manager, period=config.epidemic_interval
            )
        if config.anti_entropy_interval is not None:
            self.antientropy = AntiEntropyDaemon(
                system, interval=config.anti_entropy_interval
            )
            self.antientropy.start()
        if self._stats:
            # Category-2 counters ship to the board on the measurement
            # cadence, like load reports.
            self._merge_process = PeriodicProcess(
                system.sim,
                system.config.measurement_interval,
                self._merge_tick,
            )

    def stop(self) -> None:
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        if self.batcher is not None:
            self.batcher.stop()
        if self.antientropy is not None:
            self.antientropy.stop()
        if self._merge_process is not None:
            self._merge_process.stop()
            self._merge_tick(self._system.clock.now)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def provider_write(self, obj: ObjectId, *, size: int | None = None) -> int:
        """A content provider updates ``obj``; returns the new version."""
        manager = self.manager
        before = manager.updates_propagated
        version = manager.apply_update(obj, size=size)
        pending = self.batcher is not None
        if pending:
            self.batcher.mark_dirty(obj)
        self.writes += 1
        tracer = self._system.tracer
        if tracer is not None:
            tracer.record(
                UpdateRecord(
                    obj=obj,
                    primary=manager.primary(obj),
                    version=version,
                    propagated=manager.updates_propagated - before,
                    pending=pending,
                )
            )
        return version

    # ------------------------------------------------------------------
    # Staleness bookkeeping (manager hooks)
    # ------------------------------------------------------------------

    def _on_version(self, obj: ObjectId, host: NodeId, version: int) -> None:
        self._recheck(obj)

    def _on_drop(self, obj: ObjectId, host: NodeId) -> None:
        self._repair_suppressed.discard((obj, host))
        self._recheck(obj)

    def _recheck(self, obj: ObjectId) -> None:
        """Recompute ``obj``'s stale set and update window bookkeeping."""
        manager = self.manager
        target = manager.primary_version(obj)
        stale: set[NodeId] = set()
        if target > 0:
            primary = manager.primary(obj)
            for host in self._system.redirectors.for_object(obj).replica_hosts(obj):
                if host == primary:
                    continue
                if manager.version_or_default(obj, host) < target:
                    stale.add(host)
        self.tracker.set_stale_set(obj, stale, self._system.clock.now)

    def unsuppress(self, obj: ObjectId, host: NodeId) -> None:
        """Anti-entropy reconciled the pair; allow read-repair again."""
        self._repair_suppressed.discard((obj, host))

    # ------------------------------------------------------------------
    # Reads (served observer)
    # ------------------------------------------------------------------

    def _on_served(
        self,
        obj: ObjectId,
        gateway: NodeId,
        server: NodeId,
        issued_at: Time,
        response_hops: int,
    ) -> None:
        now = self._system.clock.now
        if obj in self._stats:
            # Category-2: the serve is itself a commuting update,
            # tallied locally and merged to the board later.
            self.category2_served += 1
            self._pending.setdefault(server, Counter())[obj] += 1
        stale = self.tracker.note_read(obj, server, now)
        if not stale:
            return
        repaired = False
        if self.config.read_repair:
            repaired = self._read_repair(obj, server, now)
        tracer = self._system.tracer
        if tracer is not None:
            tracer.record(
                StaleReadRecord(
                    obj=obj,
                    server=server,
                    version=self.manager.version_or_default(obj, server),
                    primary_version=self.manager.primary_version(obj),
                    repaired=repaired,
                )
            )

    def _read_repair(self, obj: ObjectId, server: NodeId, now: Time) -> bool:
        if (obj, server) in self._repair_suppressed:
            return False
        if (
            self.batcher is not None
            and self.tracker.window_age(obj, now) <= self.batcher.period
        ):
            # Inside the epidemic flush window staleness is by design;
            # repairing here would defeat the batching.
            return False
        self.read_repair_attempts += 1
        if self.manager.repush(obj, server):
            self.read_repairs += 1
            return True
        # The push failed (partition, crash, bad luck): stop retrying on
        # every read until anti-entropy or recovery clears the pair.
        self._repair_suppressed.add((obj, server))
        return False

    # ------------------------------------------------------------------
    # Category-2 merging
    # ------------------------------------------------------------------

    def _merge_tick(self, now: Time) -> None:
        """Ship each host's unmerged tallies to the board's stats."""
        system = self._system
        for node in sorted(self._pending):
            counter = self._pending[node]
            if not counter:
                continue
            if not system.hosts[node].available:
                # A crashed host cannot report; its tallies stay pending
                # (and die with the host if it crashes again) until it
                # recovers and reports normally.
                continue
            delivered = system.rpc.oneway(
                node, system.board_node, system.control_bytes
            )
            if not delivered:
                continue  # Stays pending; retried next tick.
            for obj in sorted(counter):
                self._stats[obj].record_access(node, counter[obj])
            self.category2_merges += 1
            counter.clear()

    def category2_merged_total(self) -> int:
        return sum(stats.merged_total() for stats in self._stats.values())

    def _reaggregate(self) -> None:
        """Re-merge all counter snapshots and check conservation.

        ``merged + pending + lost == served`` must hold after any crash
        and recovery — commuting merges make the merged part insensitive
        to ordering, and the pending/lost split accounts for exactly the
        tallies that have not (or will never) arrive.
        """
        merged = 0
        for obj in sorted(self._stats):
            merged += sum(merge_counts([self._stats[obj].snapshot()]).values())
        pending = sum(
            sum(counter.values()) for counter in self._pending.values()
        )
        if merged + pending + self.category2_counts_lost != self.category2_served:
            raise ConsistencyError(
                "category-2 conservation violated: "
                f"{merged} merged + {pending} pending + "
                f"{self.category2_counts_lost} lost != "
                f"{self.category2_served} served"
            )
        self.category2_reaggregations += 1

    # ------------------------------------------------------------------
    # Crash / recovery seams
    # ------------------------------------------------------------------

    def _on_host_lifecycle(self, node: NodeId, crashed: bool, now: Time) -> None:
        if crashed:
            if self.batcher is not None:
                self.epidemic_pending_lost += self.batcher.drop_host(node)
            pending = self._pending.pop(node, None)
            if pending:
                self.category2_counts_lost += sum(pending.values())
            return
        # Cold recovery: the host rejoined with its stored replicas; the
        # versions it serves were rebuilt from stable store at crash
        # time, so recheck staleness for everything it holds.
        self.cold_recoveries += 1
        for obj in sorted(self._system.hosts[node].store.objects()):
            self._recheck(obj)
        self._clear_suppressions(node)
        if self._stats:
            self._reaggregate()

    def on_host_marked_up(self, node: NodeId, now: Time) -> None:
        """The failure detector declared ``node`` reachable again.

        Fires both for real crash recovery and for partition healing
        (heartbeats resuming), so this is the hook that closes
        divergence windows promptly: clear repair suppressions and run
        a targeted anti-entropy sync.
        """
        self._clear_suppressions(node)
        if self.antientropy is not None:
            self.antientropy.sync_host(node, now)

    def _clear_suppressions(self, node: NodeId) -> None:
        stale = [
            pair
            for pair in self._repair_suppressed
            if pair[1] == node or self.manager.primary(pair[0]) == node
        ]
        for pair in stale:
            self._repair_suppressed.discard(pair)
