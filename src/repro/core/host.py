"""The hosting server co-located with each backbone router.

A host services requests first-come-first-served at a fixed capacity
(Table 1: 200 requests/sec), measures its load as the serviced-request
rate over the measurement interval, maintains per-object access-count
statistics over preference paths (the control state of Section 4.1), and
tracks the bound-based load estimates of Section 2.1.

The host is deliberately passive about message flow — the
:class:`~repro.core.protocol.HostingSystem` orchestrates who calls what
and when — but owns all per-host protocol state.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.config import ProtocolConfig
from repro.core.object_store import ObjectStore
from repro.errors import ProtocolError
from repro.load.estimates import LoadEstimator
from repro.load.metrics import LoadMeter
from repro.types import NodeId, ObjectId, Time


class HostServer:
    """Per-host protocol state and FCFS service model."""

    __slots__ = (
        "node",
        "config",
        "store",
        "meter",
        "estimator",
        "service_time",
        "max_queue_delay",
        "weight",
        "storage_limit",
        "available",
        "dirty_intervals",
        "offloading",
        "access_counts",
        "pending_access",
        "paths",
        "last_placement_time",
        "_busy_until",
        "serviced_total",
        "dropped_total",
    )

    def __init__(
        self,
        node: NodeId,
        config: ProtocolConfig,
        paths: Mapping[NodeId, tuple[NodeId, ...]],
        *,
        capacity: float = 200.0,
        max_queue_delay: float = 30.0,
        weight: float = 1.0,
        storage_limit: int | None = None,
        start: Time = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ProtocolError(f"host capacity must be positive, got {capacity}")
        if max_queue_delay <= 0:
            raise ProtocolError(
                f"max queue delay must be positive, got {max_queue_delay}"
            )
        if weight <= 0:
            raise ProtocolError(f"host weight must be positive, got {weight}")
        if storage_limit is not None and storage_limit < 1:
            raise ProtocolError(
                f"storage limit must be at least 1 object, got {storage_limit}"
            )
        self.node = node
        self.config = config
        self.store = ObjectStore()
        self.meter = LoadMeter(config.measurement_interval, start=start)
        self.estimator = LoadEstimator()
        self.service_time = 1.0 / capacity
        #: Offloading mode flag (Section 4.2): entered above ``hw``,
        #: left below ``lw``.
        self.offloading = False
        #: ``cnt(p, x_s)``: per hosted object, how many times each node
        #: appeared on the preference paths of requests serviced since the
        #: last placement run (Section 4.1).  Read it through
        #: :meth:`object_access_counts`: services are first recorded in
        #: :attr:`pending_access` and land here when the counts are read.
        self.access_counts: dict[ObjectId, dict[NodeId, int]] = {}
        #: Per object, the gateway of every serviced request awaiting
        #: preference-path expansion into :attr:`access_counts`, in
        #: service order.  The protocol reads the counts once per
        #: placement round, so the path is walked once per distinct
        #: ``(object, gateway)`` then, not once per request.
        self.pending_access: dict[ObjectId, list[NodeId]] = {}
        #: ``gateway -> preference path from this host``: the routing
        #: index's own row for this node (``routes.preference_paths``),
        #: which walks a path on first use and keeps it — the one cache.
        self.paths = paths
        self.last_placement_time: Time = start
        self._busy_until: Time = 0.0
        #: Total requests ever serviced (monotonic, for sanity checks).
        self.serviced_total = 0
        #: Requests rejected because the queue exceeded max_queue_delay.
        self.dropped_total = 0
        self.max_queue_delay = max_queue_delay
        #: Relative server power (Section 2: "heterogeneity could be
        #: introduced by incorporating into the protocol weights
        #: corresponding to relative power of hosts").  Watermarks scale
        #: with the weight; capacity is the caller's responsibility.
        self.weight = weight
        #: Maximum number of objects this host may store, or ``None`` for
        #: unlimited.  The storage component of the vector load metric of
        #: Section 2.1 ("notably computational load and storage
        #: utilization").
        self.storage_limit = storage_limit
        #: False while the host is failed (failure-injection extension);
        #: a failed host services nothing and accepts no replicas.
        self.available = True
        #: Consecutive measurement intervals whose measurements were
        #: unreliable because they contained a relocation (footnote 2).
        self.dirty_intervals = 0

    # ------------------------------------------------------------------
    # FCFS service model
    # ------------------------------------------------------------------

    def enqueue(self, now: Time) -> tuple[Time, Time] | None:
        """Admit a request to the FCFS queue, or reject it.

        Returns ``(service_start, completion_time)``; the caller schedules
        the completion event.  The queue is represented implicitly by
        ``busy_until`` — with deterministic service times this is exact.

        Requests arriving when the backlog already exceeds
        ``max_queue_delay`` seconds of work are dropped (``None``): "a
        backlog of messages is not representative of the real world since
        servers normally drop messages or clients timeout before queues
        build up" (Section 6.1).  Without this, a host saturated during
        the adjustment transient carries an hours-long phantom queue that
        poisons every latency statistic for the rest of the run.
        """
        start = now if now >= self._busy_until else self._busy_until
        if start - now > self.max_queue_delay:
            self.dropped_total += 1
            return None
        completion = start + self.service_time
        self._busy_until = completion
        return start, completion

    def queue_depth(self, now: Time) -> float:
        """Approximate backlog, in requests, at simulated time ``now``."""
        backlog = self._busy_until - now
        return 0.0 if backlog <= 0 else backlog / self.service_time

    def crash(self, now: Time) -> None:
        """Crash at ``now``: mark unavailable and lose the queued work.

        Requests already admitted to the queue die with the host — their
        completion events still fire, but the completion path sees the
        host unavailable and marks the records lost instead of serviced.
        """
        if not self.available:
            raise ProtocolError(f"host {self.node} is already failed")
        self.available = False
        self._busy_until = now

    # ------------------------------------------------------------------
    # Statistics (the control state of Section 4.1)
    # ------------------------------------------------------------------

    def record_service(self, obj: ObjectId, gateway: NodeId) -> None:
        """Account one serviced request that entered at ``gateway``.

        The request's preference path is the host-to-gateway route; every
        node on it (including this host, so ``cnt(s, x_s)`` equals the
        total access count) is owed one access count for ``obj``, paid
        when the counts are next read (:meth:`_expand_pending`).
        """
        self.meter.record_service(obj)
        self.serviced_total += 1
        gateways = self.pending_access.get(obj)
        if gateways is None:
            self.pending_access[obj] = [gateway]
        else:
            gateways.append(gateway)

    def _expand_pending(self, obj: ObjectId) -> None:
        """Fold the deferred services into ``access_counts``.

        The pending gateways are tallied per distinct gateway, first seen
        first; walking each one's path once and adding its tally per node
        gives exactly the totals, and the key order, of per-request walks.
        """
        gateways = self.pending_access.pop(obj, None)
        if gateways is None:
            return
        by_gateway: dict[NodeId, int] = {}
        for gateway in gateways:
            by_gateway[gateway] = by_gateway.get(gateway, 0) + 1
        paths = self.paths
        counts = self.access_counts.setdefault(obj, {})
        for gateway, pending_count in by_gateway.items():
            for node in paths[gateway]:
                counts[node] = counts.get(node, 0) + pending_count

    def object_access_counts(self, obj: ObjectId) -> dict[NodeId, int]:
        """``cnt(., x_s)`` for one object (empty if never accessed)."""
        if self.pending_access:
            self._expand_pending(obj)
        return self.access_counts.get(obj, {})

    def total_access_count(self, obj: ObjectId) -> int:
        """``cnt(s, x_s)`` — the object's total access count here.

        This host is on every one of its own preference paths, so the
        count is the expanded one plus every pending one: no path walk.
        """
        total = self.access_counts.get(obj, {}).get(self.node, 0)
        pending = self.pending_access.get(obj)
        return total if pending is None else total + len(pending)

    def reset_access_counts(self, now: Time) -> None:
        """Start a fresh placement observation window."""
        self.access_counts.clear()
        self.pending_access.clear()
        self.last_placement_time = now

    def clear_object_state(self, obj: ObjectId) -> None:
        """Forget access counts for an object this host no longer hosts."""
        self.access_counts.pop(obj, None)
        self.pending_access.pop(obj, None)

    # ------------------------------------------------------------------
    # Load measurement and bound estimates
    # ------------------------------------------------------------------

    def measure(self, now: Time) -> float:
        """Periodic measurement tick: fold the meter into the estimator."""
        interval_start = self.meter.interval_start
        load = self.meter.tick(now)
        self.estimator.on_measurement(load, interval_start)
        self.dirty_intervals = self.dirty_intervals + 1 if self.estimator.dirty else 0
        return load

    @property
    def relocations_frozen(self) -> bool:
        """Footnote 2: halt relocations after too many dirty intervals."""
        threshold = self.config.relocation_freeze_intervals
        return threshold is not None and self.dirty_intervals >= threshold

    @property
    def measured_load(self) -> float:
        """The raw load from the last completed measurement interval."""
        return self.meter.load

    @property
    def upper_load(self) -> float:
        """Upper-bound load estimate, used to accept/refuse CreateObj."""
        return self.estimator.upper

    @property
    def lower_load(self) -> float:
        """Lower-bound load estimate, used for offloading decisions."""
        return self.estimator.lower

    @property
    def high_watermark(self) -> float:
        """This host's high watermark, scaled by its relative power."""
        return self.config.high_watermark * self.weight

    @property
    def low_watermark(self) -> float:
        """This host's low watermark, scaled by its relative power."""
        return self.config.low_watermark * self.weight

    def has_storage_room(self, obj: ObjectId) -> bool:
        """Whether a *new* replica of ``obj`` fits in local storage.

        Affinity increments on an already-stored object never consume
        extra storage.
        """
        if obj in self.store or self.storage_limit is None:
            return True
        return len(self.store) < self.storage_limit

    def update_mode(self) -> None:
        """Enter/leave offloading mode per the watermarks (Section 4.2)."""
        if self.lower_load > self.high_watermark:
            self.offloading = True
        elif self.upper_load < self.low_watermark:
            self.offloading = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostServer {self.node}: {len(self.store)} objects, "
            f"load={self.measured_load:.2f} "
            f"[{self.lower_load:.2f}, {self.upper_load:.2f}]"
            f"{' OFFLOADING' if self.offloading else ''}>"
        )
