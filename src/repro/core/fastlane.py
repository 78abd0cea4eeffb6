"""The request fast lane: three inlined stages over shared accounting.

``HostingSystem.submit_request`` and its follow-on event handlers are
general: every leg goes through ``Network.transmit`` (fault plane, tracer,
per-link counters, observer dispatch) and the replica choice and the FCFS
admission are method calls.  On the configuration every benchmark and most
scenarios actually run (reliable network, no tracer, no served observers)
none of that generality can observe anything, and its call frames are
what is left of the per-request cost.

:func:`install_fast_lane` checks that nothing *can* observe the generic
machinery and, when so, rebinds ``system.submit_request`` to three
flattened stages that simulate the **same events at the same times with
the same sequence numbers** and produce **bit-identical metrics**:

* Request/response legs skip ``Network.transmit``.  Hop counts come from
  pre-bound distance rows, delays from the transport's own hop-indexed
  tables (``Network.delay_table``), and byte-hops are aggregated as
  integer per-``(bucket, hops)`` counters folded into the transport's
  traffic cells (``Network.absorb_traffic``) at :meth:`FastLane.flush`
  — exact, because every quantity involved is an integer.
* ``ChooseReplica``'s sole-replica branch is inlined; multi-replica
  objects use the redirector method unchanged.
* ``HostServer.enqueue`` is inlined (same arithmetic, same mutations).

Everything else is the shared code: a request is the same scalars in the
event args, the service is recorded by ``HostServer.record_service``, and
the last event the lane posts is ``HostingSystem._finish_request`` — the
one writer of the completion ledger — so lane and general completions
interleave in event order in one set of cells.  A request whose chosen
replica vanished in flight (or whose host crashed) is handed, with its
scalars, to the general stage it would be in.

DESIGN.md §13 carries the exactness argument and the measured cost of
deleting the lane outright.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.redirector import RedirectorService
from repro.network.message import MessageClass
from repro.types import NodeId, ObjectId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.host import HostServer
    from repro.core.protocol import HostingSystem


def fast_lane_blockers(system: "HostingSystem", bandwidth: Any) -> list[str]:
    """Why the fast lane may NOT be installed (empty list = eligible).

    Every condition names a consumer that could observe (and therefore be
    changed by) skipping the generic per-request machinery.  ``bandwidth``
    is the run's :class:`~repro.metrics.bandwidth.BandwidthCollector`: the
    lane folds its traffic at that collector's bucket width.
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
    if sim._tracers:
        blockers.append("simulator tracing enabled")
    if system.served_observers:
        blockers.append("served-request observers attached")
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


def install_fast_lane(system: "HostingSystem", *, bandwidth: Any) -> list[str]:
    """Install the fast lane unless something can observe the generic path.

    Returns :func:`fast_lane_blockers`' verdict: empty means the lane is
    installed (reachable as ``system.fast_lane``), anything else leaves
    the system completely untouched.  The caller must invoke
    :meth:`FastLane.flush` after the run, before reading byte-hop
    totals, bandwidth series or redirector counters.
    """
    blockers = fast_lane_blockers(system, bandwidth)
    if not blockers:
        lane = FastLane(system, bandwidth.bucket)
        system.fast_lane = lane
        # Instance attribute shadows the class method; every caller that
        # looks the entry point up from now on gets the flattened one.
        system.submit_request = lane.submit_request
    return blockers


class FastLane:
    """Flattened per-request pipeline state (see module docstring)."""

    __slots__ = (
        "_system",
        "_sim",
        "_push",
        "_finish_request",
        "_network",
        "_hosts",
        "_stores",
        "_dist",
        "_services",
        "_num_services",
        "_service0",
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
        "requests_fast",
        "requests_slow",
    )

    def __init__(self, system: "HostingSystem", traffic_bucket: float) -> None:
        network = system.network
        dist = [system.routes.distance_row(n) for n in range(system.routes.num_nodes)]
        self._system = system
        self._sim = system.sim
        # post_at/post_after delegate here after validating arguments the
        # lane computes itself (delays from non-negative tables, times of
        # already-due events); same queue, same sequence numbering.
        self._push = system.sim._queue.push_fast
        self._finish_request = system._finish_request
        self._network = network
        self._hosts = [system.hosts[node] for node in range(len(system.hosts))]
        # ObjectStore mutates its affinity dict in place, so the prebound
        # dicts track replica adds/drops for the whole run.
        self._stores = [host.store._affinity for host in self._hosts]
        self._dist = dist
        services = system._services  # one per object id, or the sole service
        self._services = services
        self._num_services = len(services)
        self._service0 = services[0]
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
        self._bw_width = traffic_bucket
        self._req_counts: dict[tuple[int, int], int] = {}
        self._resp_counts: dict[tuple[int, int], int] = {}
        self._chose_sole = 0
        #: Requests the lane carried through service to the response leg.
        self.requests_fast = 0
        #: Requests handed back to the general stages (store miss,
        #: unavailable host, no selectable replica).
        self.requests_slow = 0

    # ------------------------------------------------------------------
    # The flattened stages.  Each mirrors its HostingSystem counterpart
    # op-for-op (same scheduled times, same event counts, so sequence
    # numbers — and hence same-instant tie-breaks — are identical); see
    # the module docstring for the exactness argument.
    # ------------------------------------------------------------------

    def submit_request(self, gateway: NodeId, obj: ObjectId) -> None:
        """Flattened ``HostingSystem.submit_request``."""
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
        if hops1:  # zero-hop sends cross no link and are not metered
            key = (bucket, hops1)
            req_counts[key] = req_counts.get(key, 0) + 1
        try:
            replicas = service._replicas[obj]
        except KeyError:
            service._entry(obj)  # raises ProtocolError with the right message
            raise  # pragma: no cover - _entry always raises
        if (
            type(replicas) is not dict
            and service is self._service0
            and not self._down0
        ):
            self._chose_sole += 1
            server = replicas  # the flat form: the sole replica's host
        else:
            server = service.choose_replica(gateway, obj)
            if server is None:
                self.requests_slow += 1
                self._system.failed_requests += 1
                return
        hops2 = row_from_r[server]
        if hops2:
            key = (bucket, hops2)
            req_counts[key] = req_counts.get(key, 0) + 1
        delay = self._delay_req[hops1] + self._delay_req[hops2]
        self._push(now + delay, self._arrive, (server, obj, gateway, now))

    def _arrive(
        self, server: NodeId, obj: ObjectId, gateway: NodeId, issued_at: Time
    ) -> None:
        host = self._hosts[server]
        if obj not in self._stores[server] or not host.available:
            # Replica vanished in flight (or host failed): re-routing is
            # the general stage's job.
            self.requests_slow += 1
            self._system._arrive_at_host(server, obj, gateway, issued_at, 0)
            return
        now = self._sim._now
        # Inlined HostServer.enqueue (same arithmetic, same mutations).
        busy_until = host._busy_until
        start = now if now >= busy_until else busy_until
        if start - now > host.max_queue_delay:
            host.dropped_total += 1
            self._system._drop_request(now)
            return
        completion = start + host.service_time
        host._busy_until = completion
        self._push(completion, self._complete, (host, obj, gateway, issued_at))

    def _complete(
        self, host: "HostServer", obj: ObjectId, gateway: NodeId, issued_at: Time
    ) -> None:
        if not host.available:
            # Crash while queued: the admitted work dies with the host.
            self.requests_slow += 1
            self._system.lost_requests += 1
            return
        host.record_service(obj, gateway)
        self.requests_fast += 1
        # Response leg accounting.
        now = self._sim._now
        hops = self._dist[host.node][gateway]
        if hops:
            bucket = int(now // self._bw_width)
            resp_counts = self._resp_counts
            key = (bucket, hops)
            resp_counts[key] = resp_counts.get(key, 0) + 1
        delay = self._delay_resp[hops]
        if delay > 0:
            self._push(
                now + delay,
                self._finish_request,
                (obj, gateway, host.node, issued_at, hops),
            )
        else:
            # Zero response delay: the general stage finishes inline (no
            # event, no sequence number) — mirrored for identical seqs.
            self._finish_request(obj, gateway, host.node, issued_at, hops)

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
