"""Deployment orchestration: wiring roles, signals, and shutdown export.

:class:`LocalDeployment` runs the whole deployment — the redirector tier
(one shard, or a gateway plus ``num_shards`` shards) and every replica
host — on a single event loop, which is how the demo, the CI smoke job
and the tests run it.  The same component classes also run
one-per-process (``python -m repro serve --role
redirector|gateway|shard|host``) for a genuinely distributed deployment.

Multi-process deployments resolve addresses one of two ways:

* **fixed ports** (``base_port != 0``): every process derives the same
  peer directory from the shared config, no coordination needed;
* **ephemeral ports** (``base_port == 0``): each server binds port 0,
  writes its bound port to ``--port-file``, and *registers* with the
  front door (``/admin/register_shard`` / ``/admin/register_host``),
  which re-broadcasts the merged address book to every shard.  This is
  the port-conflict-proof flow CI uses: nothing guesses a free port.

Shutdown is signal-driven: SIGINT/SIGTERM set a stop event, the servers
and timers are torn down in order (hosts first, so no control call races
a closed redirector), and the final metrics snapshot (and the decision
trace, when enabled) is written before the process exits 0.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.export import write_jsonl
from repro.obs.tracer import DecisionTracer
from repro.routing.routes_db import RoutingDatabase
from repro.types import NodeId

from repro.live.client import register_shard as _register_shard_with
from repro.live.clock import WallClock
from repro.live.config import LiveConfig, PeerDirectory
from repro.live.gateway import LiveGateway
from repro.live.host import LiveHostNode
from repro.live.metrics import summarize_deployment, write_metrics
from repro.live.redirector import LiveRedirector


class LocalDeployment:
    """Every role of one deployment, on the caller's event loop."""

    def __init__(
        self,
        config: LiveConfig,
        *,
        clock=None,
        trace: bool = False,
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else WallClock()
        self.routes = RoutingDatabase(config.build_topology())
        self.tracer: DecisionTracer | None = None
        if trace:
            self.tracer = DecisionTracer()
            self.tracer.bind_clock(lambda: self.clock.now)
        if config.base_port == 0:
            self.directory = PeerDirectory()
        else:
            self.directory = PeerDirectory.from_config(config)
        self.shards = [
            LiveRedirector(
                config, self.routes, self.clock, self.directory,
                shard=shard, tracer=self.tracer,
            )
            for shard in range(config.num_shards)
        ]
        self.gateway = (
            LiveGateway(config, self.directory) if config.num_shards > 1 else None
        )
        self.hosts = [
            LiveHostNode(
                node, config, self.routes, self.clock, self.directory,
                tracer=self.tracer,
            )
            for node in range(config.num_hosts)
        ]

    @property
    def redirector(self) -> LiveRedirector:
        """The first shard — *the* redirector in single-shard mode."""
        return self.shards[0]

    async def start(self, *, timers: bool = True) -> None:
        """Bind every server, resolve the directory, start the timers.

        Timers start only after every address is known, so the first
        placement round can never fire into an unresolved directory.
        The shared in-process :class:`PeerDirectory` makes registration
        a no-op here: each ``start()`` fills its own entry directly.
        """
        for shard in self.shards:
            await shard.start()
        if self.gateway is not None:
            await self.gateway.start()
        else:
            self.directory.set_redirector(self.shards[0].server.address)
        for host in self.hosts:
            port = await host.start(timers=False)
            self.directory.set_host(host.node, (self.config.bind_host, port))
        if timers:
            for host in self.hosts:
                host.start_timers()

    async def stop(self) -> None:
        for host in self.hosts:
            await host.stop()
        if self.gateway is not None:
            await self.gateway.stop()
        for shard in self.shards:
            await shard.stop()

    def snapshot(self) -> dict:
        """Deployment-wide state, read in-process (no HTTP)."""
        snapshot = {
            "kind": "live-deployment",
            "time": self.clock.now,
            "config": self.config.to_dict(),
            "redirector": self._merged_redirector_snapshot(),
            "hosts": [host.snapshot() for host in self.hosts],
        }
        if self.config.num_shards > 1:
            snapshot["shards"] = [shard.snapshot() for shard in self.shards]
            if self.gateway is not None:
                snapshot["gateway"] = self.gateway.snapshot()
        return snapshot

    def _merged_redirector_snapshot(self) -> dict:
        """One redirector-shaped view of the whole tier.

        Shards partition the namespace, so registries merge by union and
        the counters add; single-shard deployments pass through as-is
        (the PR-4 snapshot shape).
        """
        merged = dict(self.shards[0].snapshot())
        for shard in self.shards[1:]:
            piece = shard.snapshot()
            merged["registry"].update(piece["registry"])
            for key in (
                "owned_objects", "total_replicas", "routed_total",
                "unroutable_total", "forwarded_total", "deduplicated_total",
                "throttled_total", "chose_closest", "chose_least_requested",
            ):
                merged[key] += piece[key]
        merged.pop("shard", None)
        return merged

    def replica_placement(self) -> dict[int, dict[int, int]]:
        """``{obj: {host: affinity}}`` from the redirector registry
        (the quantity the sim-vs-live parity test compares)."""
        registry = self._merged_redirector_snapshot()["registry"]
        return {
            int(obj): {int(host): affinity for host, affinity in replicas.items()}
            for obj, replicas in registry.items()
        }


async def _wait_for_stop() -> None:
    """Block until SIGINT or SIGTERM (restoring handlers afterwards)."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(signum)


def _write_port_file(port_file: str | None, port: int) -> None:
    """Publish a bound port for whoever launched this process.

    Written atomically (rename) so a polling launcher never reads a
    half-written file.
    """
    if not port_file:
        return
    path = Path(port_file)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(f"{port}\n")
    tmp.replace(path)


def _export(
    snapshot: dict,
    tracer: DecisionTracer | None,
    metrics_path: str | None,
    trace_path: str | None,
) -> None:
    if metrics_path:
        payload = write_metrics(metrics_path, snapshot)
        print(f"metrics -> {metrics_path}", file=sys.stderr)
        summary = payload["summary"]
    else:
        summary = summarize_deployment(snapshot)
    for key in ("requests_serviced", "relocations", "replica_drops",
                "replicas_total"):
        if key in summary:
            print(f"  {key}: {summary[key]}", file=sys.stderr)
    if trace_path and tracer is not None:
        count = write_jsonl(tracer.records(), trace_path)
        print(f"trace -> {trace_path} ({count} records)", file=sys.stderr)


async def serve_all(
    config: LiveConfig,
    *,
    metrics_path: str | None = None,
    trace_path: str | None = None,
    duration: float | None = None,
    port_file: str | None = None,
) -> dict:
    """Run the whole deployment until signalled (or for ``duration`` s)."""
    deployment = LocalDeployment(config, trace=trace_path is not None)
    await deployment.start()
    addr = deployment.directory.redirector()
    _write_port_file(port_file, addr[1])
    front = "gateway" if config.num_shards > 1 else "redirector"
    shards = f" x {config.num_shards} shards" if config.num_shards > 1 else ""
    print(
        f"live deployment up: {front} http://{addr[0]}:{addr[1]}{shards} "
        f"+ {config.num_hosts} hosts ({config.topology})",
        file=sys.stderr,
    )
    try:
        if duration is not None:
            await asyncio.sleep(duration)
        else:
            await _wait_for_stop()
    finally:
        snapshot = deployment.snapshot()
        await deployment.stop()
        _export(snapshot, deployment.tracer, metrics_path, trace_path)
    return snapshot


async def serve_redirector(
    config: LiveConfig,
    *,
    metrics_path: str | None = None,
    port_file: str | None = None,
) -> dict:
    """Run the single-redirector front door (multi-process deployments).

    With ephemeral ports the directory starts empty and fills as hosts
    ``/admin/register_host`` themselves; with fixed ports it is complete
    from the config.
    """
    if config.num_shards > 1:
        raise ConfigurationError(
            "a sharded tier runs --role gateway plus --role shard processes; "
            "--role redirector is the single-shard front door"
        )
    routes = RoutingDatabase(config.build_topology())
    directory = _role_directory(config)
    redirector = LiveRedirector(config, routes, WallClock(), directory)
    port = await redirector.start()
    directory.set_redirector((config.bind_host, port))
    _write_port_file(port_file, port)
    print(f"redirector up on {config.bind_host}:{port}", file=sys.stderr)
    try:
        await _wait_for_stop()
    finally:
        snapshot = {
            "kind": "live-redirector",
            "redirector": redirector.snapshot(),
            "hosts": [],
        }
        await redirector.stop()
        if metrics_path:
            write_metrics(metrics_path, snapshot)
    return snapshot


async def serve_gateway(
    config: LiveConfig,
    *,
    metrics_path: str | None = None,
    port_file: str | None = None,
) -> dict:
    """Run the gateway of a sharded tier (multi-process deployments)."""
    if config.num_shards < 2:
        raise ConfigurationError("--role gateway needs --shards >= 2")
    directory = _role_directory(config)
    gateway = LiveGateway(config, directory)
    port = await gateway.start()
    _write_port_file(port_file, port)
    print(
        f"gateway up on {config.bind_host}:{port} "
        f"({config.num_shards} shards expected)",
        file=sys.stderr,
    )
    try:
        await _wait_for_stop()
    finally:
        snapshot = {"kind": "live-gateway", "gateway": gateway.snapshot()}
        await gateway.stop()
        if metrics_path:
            write_metrics(metrics_path, snapshot)
    return snapshot


async def serve_shard(
    config: LiveConfig,
    shard: int,
    *,
    gateway: tuple[str, int] | None = None,
    metrics_path: str | None = None,
    port_file: str | None = None,
) -> dict:
    """Run one redirector shard (multi-process deployments).

    With ephemeral ports the shard registers its bound address with the
    gateway, whose peers broadcast teaches every shard the full address
    book.
    """
    if not 0 <= shard < config.num_shards:
        raise ConfigurationError(
            f"--shard must be in [0, {config.num_shards}), got {shard}"
        )
    if config.base_port == 0 and gateway is None:
        raise ConfigurationError(
            "ephemeral ports need --gateway HOST:PORT to register with"
        )
    routes = RoutingDatabase(config.build_topology())
    directory = _role_directory(config, front=gateway)
    redirector = LiveRedirector(
        config, routes, WallClock(), directory, shard=shard
    )
    port = await redirector.start()
    _write_port_file(port_file, port)
    if gateway is not None:
        await asyncio.to_thread(
            _register_shard_with, gateway, shard, (config.bind_host, port)
        )
    print(
        f"shard {shard} up on {config.bind_host}:{port}", file=sys.stderr
    )
    try:
        await _wait_for_stop()
    finally:
        snapshot = {
            "kind": "live-shard",
            "redirector": redirector.snapshot(),
            "hosts": [],
        }
        await redirector.stop()
        if metrics_path:
            write_metrics(metrics_path, snapshot)
    return snapshot


async def serve_host(
    config: LiveConfig,
    node: NodeId,
    *,
    gateway: tuple[str, int] | None = None,
    metrics_path: str | None = None,
    port_file: str | None = None,
) -> dict:
    """Run one replica-host role (multi-process deployments).

    ``gateway`` is the deployment's front door (the gateway when
    sharded, the redirector otherwise); with ephemeral ports the host
    registers its bound address there after binding.
    """
    if not 0 <= node < config.num_hosts:
        raise ConfigurationError(
            f"--node must be in [0, {config.num_hosts}), got {node}"
        )
    if config.base_port == 0 and gateway is None:
        raise ConfigurationError(
            "ephemeral ports need --gateway HOST:PORT (the front door) "
            "to register with"
        )
    routes = RoutingDatabase(config.build_topology())
    directory = _role_directory(config, front=gateway)
    host = LiveHostNode(node, config, routes, WallClock(), directory)
    port = await host.start(timers=False)
    _write_port_file(port_file, port)
    if config.base_port == 0:
        await asyncio.to_thread(
            host.control.register_host, node, (config.bind_host, port)
        )
    host.start_timers()
    print(f"host {node} up on {config.bind_host}:{port}", file=sys.stderr)
    try:
        await _wait_for_stop()
    finally:
        snapshot = {
            "kind": "live-host",
            "redirector": {},
            "hosts": [host.snapshot()],
        }
        await host.stop()
        if metrics_path:
            write_metrics(metrics_path, snapshot)
    return snapshot


def _role_directory(
    config: LiveConfig, *, front: tuple[str, int] | None = None
) -> PeerDirectory:
    """The address book a standalone role process starts from.

    Fixed ports: complete from the config.  Ephemeral ports: empty but
    for the front door, which must then be given explicitly
    (``--gateway HOST:PORT``) — it is the registration rendezvous.
    """
    if config.base_port != 0:
        directory = PeerDirectory.from_config(config)
        if front is not None:
            directory.set_redirector(front)
        return directory
    directory = PeerDirectory()
    if front is not None:
        directory.set_redirector(front)
    return directory


__all__ = [
    "LocalDeployment",
    "serve_all",
    "serve_gateway",
    "serve_host",
    "serve_redirector",
    "serve_shard",
]
