"""Message transport with delay computation and bandwidth accounting.

:class:`Network` is the single place where simulated messages cross the
backbone.  For each send it

* computes the end-to-end delay (per-hop propagation plus, for sizeable
  messages, per-hop store-and-forward transmission time at the link
  bandwidth — Table 1: 10 ms/hop and 350 KBps),
* charges ``size`` bytes to every traversed link ("the bandwidth is
  determined by summing the number of bytes transmitted on each hop",
  Section 6.2), bucketed per traffic class,
* optionally schedules a delivery callback on the simulator.

What a message costs here is what is attached.  Hop counts come from
pre-bound distance rows and delays from per-size hop-indexed tables
filled by :meth:`Network.delay` itself (identical floats).  Bandwidth
accounting is a pair of integer adds into the current time bucket's
``[byte_hops, messages]`` cell (:meth:`Network.meter_traffic`; the
:class:`~repro.metrics.bandwidth.BandwidthCollector` reads the table at
query time).  The fault plane, the tracer, per-link counters and extra
observers (:meth:`Network.add_observer`, called with ``(time, source,
target, hops, size, message_class)`` for every send) each cost one
truthiness check when absent.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.network.faults import FaultPlane
from repro.network.link import Link
from repro.network.message import MessageClass
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.types import NodeId, Time

#: Signature of a traffic observer.
TrafficObserver = Callable[[Time, NodeId, NodeId, int, int, MessageClass], None]

#: One time bucket of metered traffic: class -> ``[byte_hops, messages]``.
TrafficCells = dict[MessageClass, list[int]]

#: Delay tables are kept for at most this many distinct message sizes
#: (the pipeline uses three; anti-entropy digests add one per distinct
#: object count); rarer sizes are computed per message.
MAX_TABULATED_SIZES = 256


class Network:
    """The backbone transport layer.

    Parameters
    ----------
    sim:
        The simulator used for delivery scheduling.
    routes:
        The routing database supplying canonical routes and hop counts.
    hop_delay:
        Per-hop propagation delay in seconds (paper: 10 ms).
    bandwidth:
        Link bandwidth in bytes/second (paper: 350 KB/s = 350_000).
    store_and_forward:
        When true (default), transmission time ``size / bandwidth`` is
        paid on every hop; when false, only once end-to-end.
    track_links:
        When true (default), per-link byte counters are maintained.
        Disable for very large scaled runs where only aggregate byte-hop
        totals matter.
    """

    def __init__(
        self,
        sim: Simulator,
        routes: RoutingDatabase,
        *,
        hop_delay: float = 0.010,
        bandwidth: float = 350_000.0,
        store_and_forward: bool = True,
        track_links: bool = True,
    ) -> None:
        if hop_delay < 0:
            raise SimulationError(f"negative hop delay {hop_delay}")
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        self._sim = sim
        self._routes = routes
        self._dist = [routes.distance_row(node) for node in range(routes.num_nodes)]
        #: size -> delays indexed by hop count, grown on demand.
        self._delay_tables: dict[int, list[Time]] = {}
        self.hop_delay = hop_delay
        self.bandwidth = bandwidth
        self.store_and_forward = store_and_forward
        self._observers: list[TrafficObserver] = []
        #: Optional :class:`~repro.obs.tracer.ProtocolTracer`; when set,
        #: every send is offered via ``record_message`` (the tracer
        #: filters by message class before building a record).
        self.tracer: Any | None = None
        #: Optional :class:`~repro.network.faults.FaultPlane`.  ``None``
        #: (the default) is the reliable backbone: :meth:`transmit` then
        #: draws nothing and delivers every message once, so fault-free
        #: runs stay byte-identical to the pre-fault transport.
        self.faults: FaultPlane | None = None
        self._links: dict[tuple[NodeId, NodeId], Link] | None = None
        if track_links:
            self._links = {
                edge: Link(*edge) for edge in routes.topology.links()
            }
        #: Total byte-hops accumulated per traffic class over the run.
        self.byte_hops: dict[MessageClass, float] = {
            cls: 0.0 for cls in MessageClass
        }
        #: Metered traffic, bucket index -> :data:`TrafficCells`; filled
        #: from the first :meth:`meter_traffic` call on.  Integer sums, so
        #: exact and order-free; bounded by buckets x classes.
        self.traffic: dict[int, TrafficCells] = {}
        self.traffic_bucket: float | None = None
        self._bucket = -1
        self._cells: TrafficCells = {}

    @property
    def routes(self) -> RoutingDatabase:
        return self._routes

    @property
    def sim(self) -> Simulator:
        return self._sim

    def add_observer(self, observer: TrafficObserver) -> None:
        """Register a callback invoked for every message sent."""
        self._observers.append(observer)

    def meter_traffic(self, bucket: float) -> dict[int, TrafficCells]:
        """Meter every later send into ``bucket``-second time buckets.

        Returns the live :attr:`traffic` table.  Zero-hop sends cross no
        link and are not metered.  A network meters at one width;
        asking for a second one is an error (register an observer for
        a differently bucketed view).
        """
        if bucket <= 0:
            raise SimulationError(f"bucket width must be positive, got {bucket}")
        if self.traffic_bucket is None:
            self.traffic_bucket = bucket
        elif self.traffic_bucket != bucket:
            raise SimulationError(
                f"traffic is already metered in {self.traffic_bucket:g} s buckets"
            )
        return self.traffic

    def _open_bucket(self, bucket: int) -> None:
        """Make ``bucket`` the one :meth:`transmit` writes without a lookup."""
        cells = self.traffic.get(bucket)
        if cells is None:
            cells = self.traffic[bucket] = {cls: [0, 0] for cls in MessageClass}
        self._bucket = bucket
        self._cells = cells

    def absorb_traffic(
        self,
        message_class: MessageClass,
        size: int,
        counts: dict[tuple[int, int], int],
    ) -> None:
        """Account pre-aggregated sends (the request fast lane's flush).

        ``counts`` maps ``(bucket, hops)`` to the number of ``size``-byte
        messages of ``message_class`` that crossed ``hops`` links in that
        bucket of the metered width.  All sums are integers, so the
        result is identical to per-message accounting in any interleaving.
        """
        for (bucket, hops), count in counts.items():
            amount = size * hops * count
            self.byte_hops[message_class] += amount
            if bucket != self._bucket:
                self._open_bucket(bucket)
            cell = self._cells[message_class]
            cell[0] += amount
            cell[1] += count

    def link(self, a: NodeId, b: NodeId) -> Link:
        """The :class:`Link` joining two adjacent nodes (if tracked)."""
        if self._links is None:
            raise SimulationError("per-link tracking is disabled")
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise SimulationError(f"no link between {a} and {b}") from None

    def links(self) -> list[Link]:
        """All tracked links."""
        if self._links is None:
            raise SimulationError("per-link tracking is disabled")
        return list(self._links.values())

    def delay(self, hops: int, size: int) -> Time:
        """End-to-end delay for a ``size``-byte message over ``hops`` links."""
        if hops == 0:
            return 0.0
        transmission = size / self.bandwidth
        if self.store_and_forward:
            return hops * (self.hop_delay + transmission)
        return hops * self.hop_delay + transmission

    def delay_table(self, size: int, hops: int) -> list[Time]:
        """The live hop-indexed delay table for ``size``-byte messages,
        filled by :meth:`delay` at least through ``hops``."""
        table = self._delay_tables.setdefault(size, [])
        for h in range(len(table), hops + 1):
            table.append(self.delay(h, size))
        return table

    def send(
        self,
        source: NodeId,
        target: NodeId,
        size: int,
        message_class: MessageClass,
        callback: Callable[..., Any] | None = None,
        *args: Any,
    ) -> tuple[int, Time]:
        """:meth:`transmit` a message and schedule its delivery.

        Returns ``(hops, delay)``.  A ``None`` callback performs
        accounting and delay computation only (useful when the caller
        folds several legs into one scheduled event for efficiency); so
        does a message the attached fault plane drops.  Local delivery
        (``source == target``) is free and immediate.
        """
        hops, delay, delivered = self.transmit(source, target, size, message_class)
        if callback is not None and delivered:
            # The handle is never exposed to callers, so delivery events
            # are uncancellable by construction: use the handle-free path.
            if delay > 0:
                self._sim.post_after(delay, callback, *args)
            else:
                self._sim.post_at(self._sim.now, callback, *args)
        return hops, delay

    def account(
        self,
        source: NodeId,
        target: NodeId,
        size: int,
        message_class: MessageClass,
    ) -> tuple[int, Time]:
        """Accounting-only variant of :meth:`send` (no event scheduled)."""
        return self.send(source, target, size, message_class, None)

    def transmit(
        self,
        source: NodeId,
        target: NodeId,
        size: int,
        message_class: MessageClass,
    ) -> tuple[int, Time, bool]:
        """Transmit one message subject to the attached fault plane.

        Returns ``(hops, delay, delivered)``.  The one per-message
        function: hop and delay lookup, fault verdict (see
        :mod:`repro.network.faults`) and byte charges in one frame.
        Under faults a message may be dropped (bytes still charged once:
        it was transmitted and lost en route), duplicated (charged
        twice) or jittered (``delay`` grows); a zero-hop one crosses no
        link and cannot be dropped.  A node id outside ``0..n-1`` raises
        :class:`~repro.errors.RoutingError`.
        """
        try:
            if source < 0 or target < 0:  # a negative index would wrap
                raise IndexError
            hops = self._dist[source][target]
        except IndexError:
            hops = self._routes.distance(source, target)  # names the bad node
        try:
            delay = self._delay_tables[size][hops]
        except (KeyError, IndexError):
            if len(self._delay_tables) < MAX_TABULATED_SIZES:
                delay = self.delay_table(size, hops)[hops]
            else:
                delay = self.delay(hops, size)
        copies = 1
        faults = self.faults
        if faults is not None and hops:
            # The verdict: outages first (no draw), then drop, duplicate
            # and jitter, each drawn only when it can happen.
            if (faults._partitions or faults._down_links) and faults.crosses_fault(
                source, target, self._routes
            ):
                faults.link_drops += 1
                copies = 0
            else:
                random = faults._random
                prob = faults._drop_prob[message_class]
                if prob > 0.0 and random() < prob:
                    faults.dropped[message_class] += 1
                    copies = 0
                else:
                    prob = faults._duplicate_prob
                    if prob > 0.0 and random() < prob:
                        faults.duplicated += 1
                        copies = 2
                    jitter = faults._delay_jitter
                    if jitter > 0.0 and delay > 0.0:
                        delay += delay * jitter * random()
        if hops:
            # Charged max(copies, 1) times; byte-hops are integers, so one
            # add of the double charge equals two adds of the single one.
            charges = copies or 1
            amount = size * hops * charges
            self.byte_hops[message_class] += amount
            width = self.traffic_bucket
            if width is not None:
                bucket = int(self._sim._now // width)
                if bucket != self._bucket:
                    self._open_bucket(bucket)
                cell = self._cells[message_class]
                cell[0] += amount
                cell[1] += charges
        if self._links is not None or self.tracer is not None or self._observers:
            self._account(source, target, hops, size, message_class)
            if copies == 2:
                self._account(source, target, hops, size, message_class)
        return hops, delay, copies != 0

    def _account(
        self,
        source: NodeId,
        target: NodeId,
        hops: int,
        size: int,
        message_class: MessageClass,
    ) -> None:
        """The instrumented extras of one charge (:meth:`transmit` counts
        the bytes): per-link counters, the tracer, observers."""
        if hops and self._links is not None:
            route = self._routes.route(source, target)
            for a, b in zip(route, route[1:]):
                key = (a, b) if a < b else (b, a)
                self._links[key].record(size, message_class)
        if self.tracer is not None:
            self.tracer.record_message(source, target, hops, size, message_class)
        if self._observers:
            now = self._sim._now
            for observer in self._observers:
                observer(now, source, target, hops, size, message_class)

    def total_byte_hops(self) -> float:
        """Total traffic across all classes, in byte-hops."""
        return sum(self.byte_hops.values())
