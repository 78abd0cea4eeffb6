"""The hosting platform: hosts + redirectors + network, wired together.

:class:`HostingSystem` assembles the full system model of Section 2 and
drives the request flow:

    client -> gateway -> redirector -> host -> gateway

and the periodic protocol machinery: load measurement (every measurement
interval), load reports to the recovery board, and per-host placement
rounds (every placement interval, phase-staggered across hosts).

Timing model
------------
Request legs are charged their real per-hop delays, and the (large)
response is charged propagation plus transmission.  One simplification is
made for simulation efficiency: the redirector's replica *choice* is
computed when the request enters the platform rather than after the
gateway-to-redirector propagation delay (tens of milliseconds).  The
delay itself is still paid in full by the request; only the interleaving
of choices across gateways shifts by that sub-100 ms margin, which is
three orders of magnitude below the protocol's decision timescales
(20 s measurements, 100 s placement rounds).

Placement-protocol control messages and object copies are likewise
applied at decision time while their bytes are charged to the backbone in
full; a 12 KB object copy takes well under a second of transfer time
against a 100 s placement interval.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.core.config import ProtocolConfig
from repro.core.create_obj import handle_create_obj  # re-exported for tests
from repro.core.host import HostServer
from repro.core.load_board import LoadReportBoard, expiry_from_protocol
from repro.core.placement import PlacementEngine
from repro.core.redirector import NotListed, RedirectorGroup, RedirectorService
from repro.core.runtime import (
    AffinityReduced, CreateObj, ReadBoard, ReplicaCreated, RequestDrop, Step, placement_offset,
)
from repro.errors import ProtocolError
from repro.metrics.histogram import LatencyHistogram
from repro.network.faults import FaultPlane
from repro.network.message import (
    DEFAULT_CONTROL_BYTES,
    DEFAULT_REQUEST_BYTES,
    MessageClass,
)
from repro.network.rpc import RpcLayer
from repro.network.transport import Network
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.types import (
    NodeId,
    ObjectId,
    PlacementAction,
    PlacementEvent,
    PlacementReason,
    Time,
    canonical_object_ids,
)

__all__ = ["HostingSystem", "handle_create_obj"]

#: Called when a response reaches its gateway, as
#: ``(obj, gateway, server, issued_at, response_hops)``.
ServedObserver = Callable[[ObjectId, NodeId, NodeId, Time, int], None]
MeasurementObserver = Callable[[HostServer, Time], None]
PlacementObserver = Callable[[PlacementEvent], None]
R = TypeVar("R")

#: How many times a request is re-routed to an alternate replica (after
#: its chosen host proved dead or replica-less) before failing outright.
#: Only enforced under an active fault plane, where a stale redirector
#: view can repeatedly select dead hosts.
MAX_REQUEST_RETRIES = 3

#: The request stages' message classes as globals: on CPython 3.11 every
#: ``MessageClass.X`` read goes through ``EnumType.__getattr__``'s hook.
_REQUEST, _RESPONSE = MessageClass.REQUEST, MessageClass.RESPONSE


class HostingSystem:
    """A complete simulated Internet hosting platform.

    Parameters
    ----------
    sim, network:
        The simulator and the backbone transport (which carries the
        routing database and topology).
    config:
        Protocol parameters; see :class:`~repro.core.config.ProtocolConfig`.
    num_objects:
        Size of the hosted object namespace (object ids ``0..n-1``).
    object_size:
        Bytes per object (uniform, Table 1: 12 KB).
    capacity:
        Host service capacity in requests/sec (Table 1: 200).
    redirector_nodes:
        Nodes hosting redirectors.  Defaults to the single node with
        minimum mean hop distance, as in the paper's evaluation.
    redirector_factory:
        Constructor for redirector services — override to swap in a
        baseline request-distribution policy (round-robin, closest).
    enable_placement:
        When False, no placement processes run: the system becomes the
        static-placement baseline the paper's figures compare against.
    fault_plane:
        Optional :class:`~repro.network.faults.FaultPlane` (robustness
        extension).  When set, the backbone loses/duplicates/jitters
        messages, all control conversations run over the retrying
        :class:`~repro.network.rpc.RpcLayer`, failures are discovered by
        the heartbeat monitor instead of an omniscient injector, and the
        repair daemon re-replicates stranded objects.  ``None`` (default)
        keeps every path byte-identical to the reliable system.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ProtocolConfig,
        *,
        num_objects: int,
        object_size: int = 12 * 1024,
        capacity: float = 200.0,
        request_bytes: int = DEFAULT_REQUEST_BYTES,
        control_bytes: int = DEFAULT_CONTROL_BYTES,
        redirector_nodes: Sequence[NodeId] | None = None,
        redirector_factory: Callable[..., RedirectorService] | None = None,
        enable_placement: bool = True,
        consistency_policy: object | None = None,
        host_weights: dict[NodeId, float] | None = None,
        storage_limits: dict[NodeId, int] | None = None,
        fault_plane: FaultPlane | None = None,
    ) -> None:
        if num_objects < 1:
            raise ProtocolError("need at least one object")
        if object_size <= 0:
            raise ProtocolError("object size must be positive")
        self.sim = sim
        #: The :class:`~repro.core.runtime.Clock` seen by the protocol
        #: decision code (the transport+clock seam): in the simulator the
        #: clock *is* the simulator.
        self.clock = sim
        self.network = network
        self.routes = network.routes
        self.config = config
        self.num_objects = num_objects
        self.object_size = object_size
        self.request_bytes = request_bytes
        self.control_bytes = control_bytes
        self.capacity = capacity
        self.enable_placement = enable_placement
        #: Optional :class:`~repro.consistency.categories.ConsistencyPolicy`
        #: enforcing Section 5 replica limits in the CreateObj path.
        self.consistency_policy = consistency_policy
        #: Optional :class:`~repro.obs.tracer.ProtocolTracer`; attach via
        #: :meth:`attach_tracer` so every instrumentation site is wired.
        self.tracer = None
        #: The installed :class:`~repro.core.fastlane.FastLane`, if any;
        #: set by :meth:`enable_fast_lane`, which also rebinds
        #: :meth:`submit_request` to the lane's entry point.
        self.fast_lane = None
        # The request stages schedule handle-free, at times never past.
        self._push = sim._queue.push_fast

        topology = self.routes.topology
        weights = host_weights or {}
        limits = storage_limits or {}
        self.hosts: dict[NodeId, HostServer] = {
            node: HostServer(
                node,
                config,
                self.routes.preference_paths(node),
                # A host's power weight scales both its service capacity
                # and its watermarks (Section 2's heterogeneity note).
                capacity=capacity * weights.get(node, 1.0),
                weight=weights.get(node, 1.0),
                storage_limit=limits.get(node),
                start=sim.now,
            )
            for node in topology.nodes
        }

        if redirector_nodes is None:
            redirector_nodes = [self.routes.min_mean_distance_node()]
        factory = redirector_factory or RedirectorService
        services = [
            factory(
                node,
                self.routes,
                distribution_constant=config.distribution_constant,
            )
            for node in redirector_nodes
        ]
        self.redirectors = RedirectorGroup(services)
        #: The request stages pick ``_services[obj % len(_services)]``.
        self._services = self.redirectors.table(num_objects)
        self.board = LoadReportBoard(expiry=expiry_from_protocol(config))
        #: Node receiving load reports (co-located with the first redirector).
        self.board_node: NodeId = redirector_nodes[0]
        self.engine = PlacementEngine(self)

        #: The fault plane, if any; also attached to the network so every
        #: transmit consults it.
        self.fault_plane = fault_plane
        network.faults = fault_plane
        #: Control-plane messaging shim; a pure pass-through to
        #: ``network.transmit`` when no fault plane is attached.
        self.rpc = RpcLayer(network, fault_plane)
        #: Heartbeat failure detector and repair daemon (fault plane only).
        self.failure_detector = None
        self.repair_daemon = None
        if fault_plane is not None:
            from repro.failures.detector import HeartbeatMonitor
            from repro.failures.repair import RepairDaemon

            if fault_plane.config.detection:
                self.failure_detector = HeartbeatMonitor(self, fault_plane.config)
            if fault_plane.config.repair:
                self.repair_daemon = RepairDaemon(self, fault_plane.config)
            for service in services:
                service.liveness_probe = self._make_liveness_probe(service.node)

        #: Optional :class:`~repro.consistency.plane.ConsistencyPlane`;
        #: installed by the scenario runner (or tests) before start().
        self.consistency_plane = None
        #: Observers fired on host crash/recovery: ``(node, crashed, now)``
        #: with ``crashed`` True on crash, False on recovery.
        self.crash_observers: list[Callable[[NodeId, bool, Time], None]] = []
        self.placement_events: list[PlacementEvent] = []
        #: Called for every request whose response reached its gateway.
        #: Every other outcome is a counter below, not a callback.
        self.served_observers: list[ServedObserver] = []
        self.measurement_observers: list[MeasurementObserver] = []
        self.placement_observers: list[PlacementObserver] = []
        self._processes: list[PeriodicProcess] = []
        self._started = False
        #: Requests that found their chosen replica already gone and were
        #: re-routed (should be rare; tracked for the invariant tests).
        self.rerouted_requests = 0
        #: Requests dropped by saturated hosts (queue overflow).
        self.dropped_requests = 0
        #: Requests that found no available replica (failed hosts).
        self.failed_requests = 0
        #: Requests (or their responses) lost to network faults or a
        #: host crash mid-service; the client never saw an answer.
        self.lost_requests = 0
        #: The completion ledger: every served request is written here by
        #: :meth:`_finish_request`, in event order.  The latency histogram
        #: (its count, total and max are the run's completions, latency sum
        #: and worst latency) and the hop sum always; the per-bucket cells
        #: from :meth:`meter_completions` on.
        #: :class:`~repro.metrics.latency.LatencyCollector` is the
        #: read-time view.
        self.latency_histogram = LatencyHistogram()
        self.total_response_hops = 0
        #: Bucket index -> ``[count, latency_sum, response_hops_sum]``.
        self.completions: dict[int, list] = {}
        #: Bucket index -> requests dropped by saturated hosts.
        self.drop_counts: dict[int, int] = {}
        self.completion_bucket: float | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer: object) -> None:
        """Wire a :class:`~repro.obs.tracer.ProtocolTracer` into every
        instrumentation site: the redirectors (ChooseReplica), the
        placement/CreateObj/Offload paths (via ``self.tracer``), the
        network transport (message records), and the simulator run hooks
        (timing).  If the tracer exposes ``bind_clock`` it is bound to
        this system's simulated clock so records carry simulated time.
        """
        if self.tracer is not None:
            raise ProtocolError("a tracer is already attached")
        bind = getattr(tracer, "bind_clock", None)
        if bind is not None:
            bind(lambda: self.sim.now)
        self.tracer = tracer
        self.network.tracer = tracer
        self.rpc.tracer = tracer
        for service in self.redirectors.services:
            service.tracer = tracer
        self.sim.add_tracer(tracer)

    def _make_liveness_probe(self, origin: NodeId) -> Callable[[NodeId], bool]:
        """A drop-arbitration liveness probe issued from ``origin``.

        One control round trip per probe; an unreachable (crashed, or
        merely unlucky under loss) host reads as dead, which the
        arbitration treats conservatively.
        """

        def probe(host: NodeId) -> bool:
            outcome = self.rpc.call(
                origin,
                host,
                "Liveness",
                request_bytes=self.control_bytes,
                response_bytes=self.control_bytes,
                target_alive=self.hosts[host].available,
            )
            return outcome.acked

        return probe

    def place_initial(self, obj: ObjectId, node: NodeId) -> None:
        """Install the original copy of ``obj`` on ``node``."""
        host = self.hosts[node]
        if obj in host.store:
            raise ProtocolError(f"object {obj} already placed on {node}")
        host.store.add(obj)
        self.redirectors.for_object(obj).register_initial(obj, node)

    def initialize_round_robin(self) -> None:
        """Paper's initial assignment: object ``i`` on node ``i mod n``.

        :meth:`place_initial` for every object, done in bulk: each host's
        store is filled in one pass, then each redirector registers its
        share in ascending object id.
        """
        # One int per id and per node: the generators' table, the hosts' own.
        ids, nodes = canonical_object_ids(self.num_objects), tuple(self.hosts)
        n = len(nodes)
        for node, host in self.hosts.items():
            clash = host.store.add_new(ids[node::n])
            if clash is not None:
                raise ProtocolError(f"object {clash} already placed on {node}")
        for service, objs in self.redirectors.partition(ids):
            service.register_initial_many((obj, nodes[obj % n]) for obj in objs)

    def start(self) -> None:
        """Launch the periodic measurement and placement processes."""
        if self._started:
            raise ProtocolError("start() called twice")
        self._started = True
        if self.failure_detector is not None:
            self.failure_detector.start()
        if self.repair_daemon is not None:
            self.repair_daemon.start()
        if self.consistency_plane is not None:
            self.consistency_plane.start()
        config = self.config
        n = self.routes.num_nodes
        for node, host in self.hosts.items():
            self._processes.append(
                PeriodicProcess(
                    self.sim,
                    config.measurement_interval,
                    self._make_measurement_tick(host),
                )
            )
            if self.enable_placement:
                # First placement fires one full interval after the phase
                # offset: deciding with every load reading zero (a
                # cold-start artifact the paper's always-running hosts
                # never face) floods the hubs with geo-migrations.
                offset = placement_offset(node, n, config.placement_interval)
                self._processes.append(
                    PeriodicProcess(
                        self.sim,
                        config.placement_interval,
                        self._make_placement_tick(node),
                        start=self.sim.now + offset,
                    )
                )

    def stop(self) -> None:
        """Stop all periodic processes (used by tests)."""
        for process in self._processes:
            process.stop()
        self._processes.clear()
        if self.failure_detector is not None:
            self.failure_detector.stop()
        if self.repair_daemon is not None:
            self.repair_daemon.stop()
        if self.consistency_plane is not None:
            self.consistency_plane.stop()

    def _make_measurement_tick(self, host: HostServer) -> Callable[[Time], None]:
        def tick(now: Time) -> None:
            if not host.available:
                return
            load = host.measure(now)
            # Load report to the board: a best-effort control datagram.
            # A lost report just leaves the board one interval staler.
            delivered = self.rpc.notify(
                host.node, self.board_node, self.control_bytes, "LoadReport"
            )
            if delivered:
                self.board.report(host.node, load, now)
            for observer in self.measurement_observers:
                observer(host, now)

        return tick

    def _make_placement_tick(self, node: NodeId) -> Callable[[Time], None]:
        def tick(now: Time) -> None:
            if self.hosts[node].available:
                self.drive(self.engine.run_host(node, now))

        return tick

    def enable_fast_lane(self, *, bandwidth) -> list[str]:
        """Install the flattened request pipeline unless something blocks it.

        Returns the blockers (fault plane, tracer, served observers, ...;
        see :func:`~repro.core.fastlane.fast_lane_blockers`): empty means
        the :class:`~repro.core.fastlane.FastLane` is installed and
        reachable as :attr:`fast_lane`.  The lane produces bit-identical
        metrics; the caller must invoke ``fast_lane.flush()`` after the
        run, before reading byte-hop or bandwidth aggregates (the
        scenario runner does both).
        """
        from repro.core.fastlane import install_fast_lane

        return install_fast_lane(self, bandwidth=bandwidth)

    def meter_completions(self, bucket: float) -> None:
        """Meter every later completion and drop into ``bucket``-second
        time buckets (:attr:`completions`, :attr:`drop_counts`).

        A system meters at one width; asking for a second one is an
        error (attach a served observer for a differently bucketed view).
        """
        if bucket <= 0:
            raise ProtocolError(f"bucket width must be positive, got {bucket}")
        if self.completion_bucket is None:
            self.completion_bucket = bucket
        elif self.completion_bucket != bucket:
            raise ProtocolError(
                "completions are already metered in "
                f"{self.completion_bucket:g} s buckets"
            )

    # ------------------------------------------------------------------
    # Request flow.  A request between stages is five scalars in the
    # event args; nothing is allocated for it but the args tuple.
    # ------------------------------------------------------------------

    def submit_request(self, gateway: NodeId, obj: ObjectId) -> None:
        """A client request enters the platform at ``gateway``."""
        # Each stage reads the clock once and straight from the slot:
        # ``sim.now`` is a Python-level property, paid per read.
        now = self.sim._now
        services = self._services
        redirector = services[obj % len(services)]
        transmit = self.network.transmit
        _, delay1, delivered = transmit(
            gateway, redirector.node, self.request_bytes, _REQUEST
        )
        if not delivered:
            self.lost_requests += 1
            return
        server = redirector.choose_replica(gateway, obj)
        if server is None:
            self.failed_requests += 1
            return
        _, delay2, delivered = transmit(
            redirector.node, server, self.request_bytes, _REQUEST
        )
        if not delivered:
            self.lost_requests += 1
            return
        # Pipeline hops are never cancelled: the handle-free push skips
        # the Event allocation on every request.
        self._push(
            now + (delay1 + delay2),
            self._arrive_at_host,
            (server, obj, gateway, now, 0),
        )

    def _arrive_at_host(
        self,
        server: NodeId,
        obj: ObjectId,
        gateway: NodeId,
        issued_at: Time,
        retries: int,
    ) -> None:
        host = self.hosts[server]
        if obj not in host.store or not host.available:
            # The chosen replica was dropped while the request was in
            # flight (drop-before-the-fact means the redirector already
            # knows), or its host failed; forward to a currently
            # registered, available replica.  Under a fault plane the
            # redirector's view may be stale (the crash not yet
            # detected): tell the detector, exclude the dead host from
            # the retry, and cap the retries.
            self.rerouted_requests += 1
            exclude = None
            if self.fault_plane is not None:
                if self.failure_detector is not None:
                    self.failure_detector.note_request_failure(server, self.sim._now)
                retries += 1
                if retries > MAX_REQUEST_RETRIES:
                    self.failed_requests += 1
                    return
                exclude = server
            redirector = self.redirectors.for_object(obj)
            new_server = redirector.choose_replica(gateway, obj, exclude=exclude)
            if new_server is None:
                self.failed_requests += 1
                return
            _, delay, delivered = self.network.transmit(
                server, new_server, self.request_bytes, MessageClass.REQUEST
            )
            if not delivered:
                self.lost_requests += 1
                return
            self.sim.post_after(
                delay,
                self._arrive_at_host,
                new_server,
                obj,
                gateway,
                issued_at,
                retries,
            )
            return
        if self.failure_detector is not None:
            self.failure_detector.note_request_success(server)
        now = self.sim._now
        admitted = host.enqueue(now)
        if admitted is None:
            # Queue overflow: the request is dropped without a response
            # (Section 6.1's real-world behaviour).
            self._drop_request(now)
            return
        self._push(
            admitted[1], self._complete_service, (host, obj, gateway, issued_at)
        )

    def _drop_request(self, now: Time) -> None:
        """A saturated host turned a request away at ``now``."""
        self.dropped_requests += 1
        width = self.completion_bucket
        if width is not None:
            bucket = int(now // width)
            self.drop_counts[bucket] = self.drop_counts.get(bucket, 0) + 1

    def _complete_service(
        self, host: HostServer, obj: ObjectId, gateway: NodeId, issued_at: Time
    ) -> None:
        if not host.available:
            # The host crashed while this request sat in its queue: the
            # admitted work dies with the host and no response is sent.
            self.lost_requests += 1
            return
        host.record_service(obj, gateway)
        hops, delay, delivered = self.network.transmit(
            host.node, gateway, self.object_size, _RESPONSE
        )
        if not delivered:
            # Serviced, but the response vanished on the backbone.
            self.lost_requests += 1
            return
        if delay > 0:
            self._push(
                self.sim._now + delay,
                self._finish_request,
                (obj, gateway, host.node, issued_at, hops),
            )
        else:
            self._finish_request(obj, gateway, host.node, issued_at, hops)

    def _finish_request(
        self,
        obj: ObjectId,
        gateway: NodeId,
        server: NodeId,
        issued_at: Time,
        response_hops: int,
    ) -> None:
        """The response reached the gateway: write the completion ledger.

        The only writer, posted as their last event by these stages and
        by the fast lane alike, so the float latency sums accumulate in
        event order whichever carried the request; the hop sums are
        integers, exact in any order.
        """
        now = self.sim._now
        latency = now - issued_at
        self.latency_histogram.record(latency)
        self.total_response_hops += response_hops
        width = self.completion_bucket
        if width is not None:
            bucket = int(now // width)
            try:
                cell = self.completions[bucket]
            except KeyError:
                self.completions[bucket] = [1, latency, response_hops]
            else:
                cell[0] += 1
                cell[1] += latency
                cell[2] += response_hops
        for observer in self.served_observers:
            observer(obj, gateway, server, issued_at, response_hops)

    # ------------------------------------------------------------------
    # Placement support: the loop that answers a protocol step's
    # messages (core/runtime.py seam) over the simulated backbone;
    # repro.live.system.LiveSystem answers the same messages over HTTP.
    # ------------------------------------------------------------------

    def drive(self, step: Step[R]) -> R:
        """Run a protocol step to completion and return its result.

        Each message the step yields is answered at once, in the order
        it was yielded, so the conversation is exactly the synchronous
        call sequence it stands for: same events, same RNG draws.
        """
        answer = None
        try:
            while True:
                message = step.send(answer)
                kind = type(message)
                if kind is CreateObj:
                    answer = handle_create_obj(
                        self,
                        message.source,
                        message.candidate,
                        message.action,
                        message.obj,
                        message.unit_load,
                        message.reason,
                    )
                elif kind is AffinityReduced or kind is ReplicaCreated:
                    answer = None
                    self.notice(message)
                elif kind is RequestDrop:
                    # One arbitration per object, in order: the paper's
                    # message, whatever framing the live tier gives a run.
                    node = message.node
                    answer = [self._request_drop(node, obj) for obj in message.objs]
                elif kind is ReadBoard:
                    board = self.board.candidates(exclude=message.source, now=message.now)
                    answer = [(node, load, self.hosts[node].low_watermark) for node, load in board]
                else:  # ProbeLoad: the offload request/response round trip
                    host = self.hosts[message.candidate]
                    acked = self.rpc.call(
                        message.source,
                        message.candidate,
                        "ProbeLoad",
                        request_bytes=self.control_bytes,
                        response_bytes=self.control_bytes,
                        target_alive=host.available,
                    ).acked
                    answer = (host.upper_load, host.low_watermark) if acked else None
        except StopIteration as done:
            return done.value

    def notice(self, message: AffinityReduced | ReplicaCreated) -> bool:
        """A host's registry notice, one-way to the redirector: True if it
        arrived and the registry took it (it refuses one about a copy it
        does not list)."""
        redirector = self.redirectors.for_object(message.obj)
        kind = type(message)
        if not self.rpc.notify(message.node, redirector.node, self.control_bytes, kind.__name__):
            return False
        apply = redirector.affinity_reduced if kind is AffinityReduced else redirector.replica_created
        try:
            apply(message.obj, message.node, message.affinity)
        except NotListed:
            return False
        return True

    def _request_drop(self, node: NodeId, obj: ObjectId) -> bool | None:
        """Drop arbitration with the redirector (affinity 1 -> 0): ``None``
        if it does not list ``node`` as a holder (a live owner's 409).  A
        lost answer keeps the copy, even one the redirector approved."""
        redirector = self.redirectors.for_object(obj)
        outcome = self.rpc.call(
            node,
            redirector.node,
            "RequestDrop",
            request_bytes=self.control_bytes,
            response_bytes=self.control_bytes,
        )
        if not outcome.executed:
            return False
        try:
            approved = redirector.request_drop(obj, node)
        except NotListed:
            approved = None
        return approved if outcome.acked else False

    def record_placement(
        self,
        action: PlacementAction,
        reason: PlacementReason,
        obj: ObjectId,
        *,
        source: NodeId,
        target: NodeId | None,
        copied_bytes: int = 0,
    ) -> None:
        """Log one replica-set change and notify observers."""
        event = PlacementEvent(
            time=self.clock.now,
            action=action,
            reason=reason,
            obj=obj,
            source=source,
            target=target,
            copied_bytes=copied_bytes,
        )
        self.placement_events.append(event)
        for observer in self.placement_observers:
            observer(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_replicas(self) -> int:
        """Physical replicas currently registered, over all objects."""
        return self.redirectors.total_replicas()

    def replicas_per_object(self) -> float:
        """Mean physical replicas per object (Table 2's metric)."""
        return self.total_replicas() / self.num_objects

    def replica_hosts(self, obj: ObjectId) -> list[NodeId]:
        return self.redirectors.for_object(obj).replica_hosts(obj)

    def check_invariants(self) -> None:
        """Assert cross-component invariants (used heavily by tests).

        * The redirector's replica set is a subset of replicas that
          physically exist.
        * Every object has at least one registered replica.
        * Without a fault plane, also: the affinities match, and every
          physically hosted replica is registered (no leaks).  Under
          faults a notice may give up, leaving a stale affinity or an
          unlisted copy (DESIGN §7's fidelity note).
        """
        exact = self.fault_plane is None
        # Registrations per host.  Each is looked up in its host's store, so a
        # store holds an unregistered replica exactly when it is larger.
        registered = dict.fromkeys(self.hosts, 0)
        for obj in range(self.num_objects):
            redirector = self.redirectors.for_object(obj)
            hosts = redirector.replica_hosts(obj)
            if not hosts:
                raise ProtocolError(f"object {obj} has no registered replicas")
            for node in hosts:
                registered[node] += 1
                store = self.hosts[node].store
                if obj not in store:
                    raise ProtocolError(
                        f"redirector lists {obj} on {node} but host lacks it"
                    )
                if exact and store.affinity(obj) != redirector.affinity(obj, node):
                    raise ProtocolError(
                        f"affinity mismatch for object {obj} on host {node}"
                    )
        for node, host in self.hosts.items():
            if not exact or len(host.store) == registered[node]:
                continue
            for obj in host.store.objects():
                if obj not in range(self.num_objects) or node not in self.replica_hosts(obj):
                    raise ProtocolError(f"host {node} holds unregistered replica of {obj}")
