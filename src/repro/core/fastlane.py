"""The request fast lane: a flattened common-case request pipeline.

``HostingSystem.submit_request`` and its follow-on event handlers are
general: every leg goes through ``Network.transmit`` (fault plane, tracer,
per-link counters, observer dispatch), every request allocates a
:class:`~repro.types.RequestRecord`, every service walks the preference
path to update access counts, and every completion runs the observer
list.  At million-request scale that generality is almost all of the
per-request cost — and on the configuration every benchmark and most
scenarios actually run (reliable network, no tracer, exactly the standard
metrics collectors) none of it can observe anything.

:func:`install_fast_lane` checks that nothing *can* observe the generic
machinery and, when so, rebinds ``system.submit_request`` to a flattened
pipeline that simulates the **same events at the same times with the same
sequence numbers** and produces **bit-identical metrics**:

* Request/response legs skip ``Network.transmit``.  Hop counts come from
  pre-bound distance rows, delays from the transport's own hop-indexed
  tables (``Network.delay_table``), and byte-hops are aggregated as
  integer per-``(bucket, hops)`` counters folded into the transport's
  traffic cells (``Network.absorb_traffic``) at :meth:`FastLane.flush`
  — exact, because every quantity involved is an integer.
* ``ChooseReplica``'s sole-replica branch is inlined; multi-replica
  objects use the (micro-optimised) redirector method unchanged.
* No ``RequestRecord`` exists on the happy path.  The pipeline carries
  four scalars (server, object, gateway, issue time) through the event
  queue and updates the latency collector's internals directly with the
  same arithmetic, in the same event order, that its observer would use.
* Access counts are not expanded per request: the host records a pending
  ``(object, gateway)`` count (`HostServer.pending_access`) and the
  preference-path walk happens lazily when placement or offload reads
  the counts — integer counts make the expansion order-free and exact.
  Short runs that never reach a placement round never walk a path at all.

The slow path remains authoritative: a request whose chosen replica
vanished in flight (or whose host crashed) materialises the record the
classic pipeline would have at that point and hands it to
``HostingSystem._arrive_at_host`` — from there everything, including
re-routing and the observer dispatch, is the untouched reference code.
Both paths write the same collector structures, so interleaving is exact.

DESIGN.md §13 carries the full exactness argument.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.redirector import RedirectorService
from repro.network.message import MessageClass
from repro.types import NodeId, ObjectId, RequestRecord, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem
    from repro.metrics.bandwidth import BandwidthCollector
    from repro.metrics.latency import LatencyCollector


def fast_lane_blockers(
    system: "HostingSystem",
    bandwidth: "BandwidthCollector",
    latency: "LatencyCollector",
) -> list[str]:
    """Why the fast lane may NOT be installed (empty list = eligible).

    Every condition names a consumer that could observe (and therefore be
    changed by) skipping the generic per-request machinery.
    """
    blockers: list[str] = []
    network = system.network
    sim = system.sim
    if system.fault_plane is not None or network.faults is not None:
        blockers.append("fault plane attached")
    if system.tracer is not None or network.tracer is not None:
        blockers.append("tracer attached")
    if system.consistency_plane is not None:
        blockers.append("consistency plane attached")
    if system.failure_detector is not None or system.repair_daemon is not None:
        blockers.append("failure detector/repair daemon attached")
    if network._links is not None:
        blockers.append("per-link byte tracking enabled")
    if sim._tracers or sim.trace is not None:
        blockers.append("simulator tracing enabled")
    if list(system.request_observers) != [latency._observe]:
        blockers.append("extra request observers")
    if network._observers or bandwidth.traffic is not network.traffic:
        blockers.append("extra network observers")
    services = system.redirectors.services
    if any(type(service) is not RedirectorService for service in services):
        blockers.append("non-paper request distribution")
    if any(
        service.tracer is not None or service.liveness_probe is not None
        for service in services
    ):
        blockers.append("instrumented redirector")
    nodes = list(system.routes.topology.nodes)
    if nodes != list(range(len(nodes))):
        blockers.append("non-contiguous node ids")
    return blockers


def install_fast_lane(
    system: "HostingSystem",
    *,
    bandwidth: "BandwidthCollector",
    latency: "LatencyCollector",
) -> "FastLane | None":
    """Install the fast lane if nothing can observe the generic path.

    Returns the installed :class:`FastLane` (also reachable as
    ``system.fast_lane``), or ``None`` when any blocker applies — in
    which case the system is left completely untouched.  The caller must
    invoke :meth:`FastLane.flush` after the run, before reading byte-hop
    totals, bandwidth series or redirector counters.
    """
    if fast_lane_blockers(system, bandwidth, latency):
        return None
    lane = FastLane(system, bandwidth, latency)
    system.fast_lane = lane
    # Instance attribute shadows the class method; every caller —
    # distributors, request generators (batched generators capture the
    # bound method at fill time, so installation precedes them in the
    # scenario runner) — picks up the flattened entry point.
    system.submit_request = lane.submit_request
    for host in lane._hosts:
        host.pending_access = {}
        host.path_resolver = partial(
            system.routes.preference_path, host.node
        )
    return lane


class FastLane:
    """Flattened per-request pipeline state (see module docstring)."""

    __slots__ = (
        "_system",
        "_sim",
        "_push",
        "_network",
        "_hosts",
        "_stores",
        "_dist",
        "_services",
        "_num_services",
        "_service0",
        "_replicas0",
        "_down0",
        "_hops_to_r",
        "_row_from_r",
        "_request_bytes",
        "_object_size",
        "_delay_req",
        "_delay_resp",
        "_bw_width",
        "_req_counts",
        "_resp_counts",
        "_chose_sole",
        "_latency",
        "_samples",
        "_lat_width",
        "_lat_sums",
        "_lat_counts",
        "_hop_sums",
        "_hop_counts",
        "_drop_sums",
        "_drop_counts",
        "requests_fast",
        "requests_slow",
    )

    def __init__(
        self,
        system: "HostingSystem",
        bandwidth: "BandwidthCollector",
        latency: "LatencyCollector",
    ) -> None:
        network = system.network
        dist = [system.routes.distance_row(n) for n in range(system.routes.num_nodes)]
        self._system = system
        self._sim = system.sim
        # post_at/post_after delegate here after validating arguments the
        # lane computes itself (delays from non-negative tables, times of
        # already-due events); same queue, same sequence numbering.
        self._push = system.sim._queue.push_fast
        self._network = network
        self._hosts = [system.hosts[node] for node in range(len(system.hosts))]
        # ObjectStore mutates its affinity dict in place, so the prebound
        # dicts track replica adds/drops for the whole run.
        self._stores = [host.store._affinity for host in self._hosts]
        self._dist = dist
        services = system.redirectors.services
        self._services = services
        self._num_services = len(services)
        self._service0 = services[0]
        self._replicas0 = services[0]._replicas
        self._down0 = services[0]._down_hosts
        rnode = services[0].node
        self._hops_to_r = [row[rnode] for row in dist]
        self._row_from_r = dist[rnode]
        self._request_bytes = system.request_bytes
        self._object_size = system.object_size
        # The transport's own delay tables, filled through the diameter:
        # the exact floats transmit() produces.
        max_hops = max(max(row) for row in dist)
        self._delay_req = network.delay_table(system.request_bytes, max_hops)
        self._delay_resp = network.delay_table(system.object_size, max_hops)
        self._bw_width = bandwidth.bucket
        self._req_counts: dict[tuple[int, int], int] = {}
        self._resp_counts: dict[tuple[int, int], int] = {}
        self._chose_sole = 0
        self._latency = latency
        self._samples = latency.samples
        (
            self._lat_width,
            self._lat_sums,
            self._lat_counts,
            self._hop_sums,
            self._hop_counts,
            self._drop_sums,
            self._drop_counts,
        ) = latency.fast_hooks()
        #: Requests that completed entirely on the fast path.
        self.requests_fast = 0
        #: Requests handed back to the reference pipeline (store miss,
        #: unavailable host, no selectable replica).
        self.requests_slow = 0

    # ------------------------------------------------------------------
    # The flattened pipeline.  Each stage mirrors its HostingSystem
    # counterpart op-for-op (same scheduled times, same event counts, so
    # sequence numbers — and hence same-instant tie-breaks — are
    # identical); see the module docstring for the exactness argument.
    # ------------------------------------------------------------------

    def submit_request(self, gateway: NodeId, obj: ObjectId) -> None:
        """Flattened ``HostingSystem.submit_request`` (returns ``None``)."""
        if self._num_services == 1:
            service = self._service0
            hops1 = self._hops_to_r[gateway]
            row_from_r = self._row_from_r
        else:
            service = self._services[obj % self._num_services]
            rnode = service.node
            hops1 = self._dist[gateway][rnode]
            row_from_r = self._dist[rnode]
        sim = self._sim
        now = sim._now
        bucket = int(now // self._bw_width)
        req_counts = self._req_counts
        if hops1:  # the bandwidth observer ignores zero-hop sends
            key = (bucket, hops1)
            req_counts[key] = req_counts.get(key, 0) + 1
        try:
            replicas = service._replicas[obj]
        except KeyError:
            service._entry(obj)  # raises ProtocolError with the right message
            raise  # pragma: no cover - _entry always raises
        if (
            len(replicas) == 1
            and service is self._service0
            and not self._down0
        ):
            (info,) = replicas.values()
            info.request_count += 1
            self._chose_sole += 1
            server = info.host
        else:
            server = service.choose_replica(gateway, obj)
            if server is None:
                # The classic path sets request_hops only after leg 2, so
                # the failed record keeps its zero default.
                self.requests_slow += 1
                record = RequestRecord(
                    obj=obj, gateway=gateway, server=-1, issued_at=now
                )
                self._system._fail_request(record)
                return
        hops2 = row_from_r[server]
        if hops2:
            key = (bucket, hops2)
            req_counts[key] = req_counts.get(key, 0) + 1
        delay = self._delay_req[hops1] + self._delay_req[hops2]
        self._push(
            now + delay, self._arrive, (server, obj, gateway, now, hops1 + hops2)
        )

    def _arrive(
        self,
        server: NodeId,
        obj: ObjectId,
        gateway: NodeId,
        issued_at: Time,
        request_hops: int,
    ) -> None:
        host = self._hosts[server]
        if obj not in self._stores[server] or not host.available:
            # Replica vanished in flight (or host failed): materialise
            # the record exactly as the classic pipeline would hold it
            # here and hand over — re-routing, retries, observers all run
            # the reference code.
            self.requests_slow += 1
            record = RequestRecord(
                obj=obj, gateway=gateway, server=-1, issued_at=issued_at
            )
            record.request_hops = request_hops
            self._system._arrive_at_host(server, record)
            return
        sim = self._sim
        now = sim._now
        # Inlined HostServer.enqueue (same arithmetic, same mutations).
        busy_until = host._busy_until
        start = now if now >= busy_until else busy_until
        if start - now > host.max_queue_delay:
            host.dropped_total += 1
            self._system.dropped_requests += 1
            latency = self._latency
            latency.dropped += 1
            bucket = int(now // self._lat_width)
            sums = self._drop_sums
            sums[bucket] = sums.get(bucket, 0.0) + 1.0
            counts = self._drop_counts
            counts[bucket] = counts.get(bucket, 0) + 1
            return
        completion = start + host.service_time
        host._busy_until = completion
        self._push(completion, self._complete, (host, obj, gateway, issued_at))

    def _complete(
        self, host, obj: ObjectId, gateway: NodeId, issued_at: Time
    ) -> None:
        if not host.available:
            # Crash while queued: the admitted work dies with the host.
            self.requests_slow += 1
            record = RequestRecord(
                obj=obj, gateway=gateway, server=host.node, issued_at=issued_at
            )
            self._system._lose_request(record)
            return
        # Inlined host.record_service with deferred path expansion: the
        # meter counts now (measurement ticks read it every interval);
        # the preference-path walk is deferred via pending_access.
        meter = host.meter
        meter._serviced += 1
        per_object = meter._per_object
        per_object[obj] = per_object.get(obj, 0) + 1
        host.serviced_total += 1
        pending = host.pending_access
        by_gateway = pending.get(obj)
        if by_gateway is None:
            pending[obj] = by_gateway = {}
        by_gateway[gateway] = by_gateway.get(gateway, 0) + 1
        # Response leg accounting.
        sim = self._sim
        now = sim._now
        hops = self._dist[host.node][gateway]
        if hops:
            bucket = int(now // self._bw_width)
            resp_counts = self._resp_counts
            key = (bucket, hops)
            resp_counts[key] = resp_counts.get(key, 0) + 1
        delay = self._delay_resp[hops]
        if delay > 0:
            self._push(now + delay, self._finish, (issued_at, hops))
        else:
            # Zero response delay: the classic path finishes inline (no
            # event, no sequence number) — mirrored for identical seqs.
            self._finish(issued_at, hops)

    def _finish(self, issued_at: Time, response_hops: int) -> None:
        now = self._sim._now
        elapsed = now - issued_at
        # Inlined LatencyCollector._observe: same attributes, same dicts,
        # same op order — float accumulation order is preserved because
        # fast and slow completions share these structures in event order.
        latency = self._latency
        latency.completed += 1
        latency.total_latency += elapsed
        latency.total_response_hops += response_hops
        if elapsed > latency.max_latency:
            latency.max_latency = elapsed
        bucket = int(now // self._lat_width)
        sums = self._lat_sums
        sums[bucket] = sums.get(bucket, 0.0) + elapsed
        counts = self._lat_counts
        counts[bucket] = counts.get(bucket, 0) + 1
        hops_value = float(response_hops)
        hop_sums = self._hop_sums
        hop_sums[bucket] = hop_sums.get(bucket, 0.0) + hops_value
        hop_counts = self._hop_counts
        hop_counts[bucket] = hop_counts.get(bucket, 0) + 1
        if self._samples is not None:
            self._samples.append(elapsed)
        self.requests_fast += 1

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Fold the aggregated accounting into the canonical structures.

        Idempotent; must run after the simulation (the scenario runner
        does) and before byte-hop totals, bandwidth series or redirector
        decision counters are read.  All folded quantities are integer
        sums, so the result is bit-identical to per-event accounting.
        """
        network = self._network
        if self._req_counts:
            network.absorb_traffic(
                MessageClass.REQUEST, self._request_bytes, self._req_counts
            )
            self._req_counts = {}
        if self._resp_counts:
            network.absorb_traffic(
                MessageClass.RESPONSE, self._object_size, self._resp_counts
            )
            self._resp_counts = {}
        if self._chose_sole:
            self._service0.chose_closest += self._chose_sole
            self._chose_sole = 0
