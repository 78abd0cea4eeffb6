"""Heartbeat-based failure detection (robustness extension).

The seed system's :class:`~repro.failures.injector.FailureInjector`
doubled as an omniscient oracle: the instant a host crashed, every
redirector was told.  Under the fault plane that shortcut is gone — a
crash is only a host that stops answering.  :class:`HeartbeatMonitor` is
how the control plane actually learns of it:

* every heartbeat interval each live host sends a best-effort heartbeat
  datagram to the monitor node (co-located with the load-report board);
* a host the monitor has not heard from for ``heartbeat_miss_threshold``
  intervals is marked down on every redirector (its replicas are masked,
  exactly as the injector used to do synchronously);
* as a fast path, ``request_failure_threshold`` *consecutive* request
  failures observed against one host mark it down immediately — request
  traffic probes hosts far more often than heartbeats do;
* a heartbeat arriving from a down-marked host marks it back up (this
  also self-heals false positives caused by heartbeat loss).

Between the crash and its detection, redirectors hold a *stale view*:
they keep routing requests to the dead host, which fail and are retried
against alternate replicas by the request flow in
:mod:`repro.core.protocol`.  That window — not a zero-cost oracle — is
what the availability metrics of this extension measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.faults import FaultConfig
from repro.obs.records import FailureDetectRecord
from repro.sim.process import PeriodicProcess
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem


class HeartbeatMonitor:
    """Learns host liveness from heartbeats and request outcomes."""

    def __init__(self, system: "HostingSystem", config: FaultConfig) -> None:
        self._system = system
        self._config = config
        self._last_seen: dict[NodeId, Time] = {}
        self._consecutive_failures: dict[NodeId, int] = {}
        self._down: set[NodeId] = set()
        self._process: PeriodicProcess | None = None
        #: Hosts marked down over the run (heartbeat + request-failure).
        self.detections = 0
        #: Hosts marked back up after a down verdict.
        self.recoveries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        system = self._system
        now = system.sim.now
        for node in system.hosts:
            self._last_seen[node] = now
        self._process = PeriodicProcess(
            system.sim, self._config.heartbeat_interval, self._tick
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def marked_down(self, node: NodeId) -> bool:
        return node in self._down

    def last_seen(self, node: NodeId) -> Time:
        return self._last_seen[node]

    def _tick(self, now: Time) -> None:
        system = self._system
        rpc = system.rpc
        monitor_node = system.board_node
        for node, host in system.hosts.items():
            if not host.available:
                continue
            delivered = rpc.notify(node, monitor_node, system.control_bytes, "Heartbeat")
            if delivered:
                self._last_seen[node] = now
                if node in self._down:
                    self._mark_up(node, now)
        deadline = (
            self._config.heartbeat_interval * self._config.heartbeat_miss_threshold
        )
        for node, last in self._last_seen.items():
            if node not in self._down and now - last > deadline:
                self._mark_down(node, now, "heartbeat")

    def note_request_failure(self, node: NodeId, now: Time) -> None:
        """A request against ``node`` found it dead or replica-less."""
        if node in self._down:
            return
        count = self._consecutive_failures.get(node, 0) + 1
        self._consecutive_failures[node] = count
        if count >= self._config.request_failure_threshold:
            self._mark_down(node, now, "request-failures")

    def note_request_success(self, node: NodeId) -> None:
        """A request was serviced by ``node``: reset its failure streak."""
        if self._consecutive_failures:
            self._consecutive_failures.pop(node, None)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def _mark_down(self, node: NodeId, now: Time, reason: str) -> None:
        self._down.add(node)
        self._consecutive_failures.pop(node, None)
        self.detections += 1
        system = self._system
        for service in system.redirectors.services:
            service.set_host_available(node, False)
        if system.repair_daemon is not None:
            system.repair_daemon.on_host_down(node, now)
        if system.tracer is not None:
            system.tracer.record(
                FailureDetectRecord(
                    node=node,
                    down=True,
                    reason=reason,
                    last_seen=self._last_seen.get(node),
                )
            )

    def _mark_up(self, node: NodeId, now: Time) -> None:
        self._down.discard(node)
        self._consecutive_failures.pop(node, None)
        self.recoveries += 1
        system = self._system
        for service in system.redirectors.services:
            service.set_host_available(node, True)
        if system.repair_daemon is not None:
            system.repair_daemon.on_host_up(node, now)
        if system.consistency_plane is not None:
            # Reachable again (crash recovery or partition heal): clear
            # repair suppressions and reconcile the host immediately.
            system.consistency_plane.on_host_marked_up(node, now)
        if system.tracer is not None:
            system.tracer.record(
                FailureDetectRecord(node=node, down=False, reason="recovery")
            )
