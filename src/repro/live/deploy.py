"""Deployment orchestration: wiring roles, signals, and shutdown export.

:class:`LocalDeployment` runs the whole deployment — the redirector
shards, shard 0 the front door, and every replica host — on a single
event loop, which is how the demo, the CI smoke job and the tests run
it.  The same component classes also run one-per-process (``python -m
repro serve --role shard|host``) for a genuinely distributed deployment.

Multi-process deployments resolve addresses one of two ways:

* **fixed ports** (``base_port != 0``): every process derives the same
  peer directory from the shared config, no coordination needed;
* **ephemeral ports** (``base_port == 0``): each server binds port 0,
  writes its bound port to ``--port-file``, and every process but
  shard 0 *registers* there (``/admin/register_shard`` /
  ``/admin/register_host``); shard 0 re-announces the merged address
  book to every other shard.  This is the port-conflict-proof flow CI
  uses: nothing guesses a free port.

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

from repro.live.client import ControlPlane
from repro.live.clock import WallClock
from repro.live.config import LiveConfig, PeerDirectory
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
        #: The one ring every shard and host reads ownership from.
        self.ring = config.ring()
        self.shards = [
            LiveRedirector(
                config, self.routes, self.clock, self.directory,
                shard=shard, ring=self.ring, tracer=self.tracer,
            )
            for shard in range(config.num_shards)
        ]
        self.hosts = [
            LiveHostNode(
                node, config, self.routes, self.clock, self.directory,
                ring=self.ring, tracer=self.tracer,
            )
            for node in range(config.num_hosts)
        ]

    @property
    def redirector(self) -> LiveRedirector:
        """Shard 0, the front door."""
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
        for shard in self.shards:
            await shard.stop()

    def snapshot(self) -> dict:
        """Deployment-wide state, read in-process (no HTTP)."""
        shards = [shard.snapshot() for shard in self.shards]
        return {
            "kind": "live-deployment",
            "time": self.clock.now,
            "config": self.config.to_dict(),
            "redirector": _merged(shards),
            "shards": shards,
            "hosts": [host.snapshot() for host in self.hosts],
        }

    def replica_placement(self) -> dict[int, dict[int, int]]:
        """``{obj: {host: affinity}}`` from the redirector registry
        (the quantity the sim-vs-live parity test compares)."""
        registry = _merged([shard.snapshot() for shard in self.shards])["registry"]
        return {
            int(obj): {int(host): affinity for host, affinity in replicas.items()}
            for obj, replicas in registry.items()
        }


def _merged(pieces: list[dict]) -> dict:
    """One redirector-shaped view of the whole tier.

    Shards partition the namespace, so registries merge by union and
    the counters add.
    """
    merged = {**pieces[0], "registry": dict(pieces[0]["registry"])}
    for piece in pieces[1:]:
        merged["registry"].update(piece["registry"])
        for key in (
            "owned_objects", "total_replicas", "routed_total",
            "unroutable_total", "forwarded_total", "forwarded_control_total",
            "mutations_total", "drop_conversations_total",
            "drops_arbitrated_total", "deduplicated_total",
            "throttled_total", "chose_closest", "chose_least_requested",
            "bad_requests_total", "server_errors_total",
        ):
            merged[key] += piece[key]
    del merged["shard"]
    return merged


async def _wait(duration: float | None) -> None:
    """Block for ``duration`` seconds, or until SIGINT/SIGTERM when it is
    ``None`` (restoring the handlers afterwards)."""
    if duration is not None:
        await asyncio.sleep(duration)
        return
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
    print(
        f"live deployment up: front door http://{addr[0]}:{addr[1]} "
        f"({config.num_shards} shard(s)) + {config.num_hosts} hosts "
        f"({config.topology})",
        file=sys.stderr,
    )
    try:
        await _wait(duration)
    finally:
        snapshot = deployment.snapshot()
        await deployment.stop()
        _export(snapshot, deployment.tracer, metrics_path, trace_path)
    return snapshot


def _check_role(
    config: LiveConfig, role: str, index: int | None, gateway: tuple[str, int] | None
) -> None:
    """Reject a role this config (or these arguments) cannot run."""
    option, count = (
        ("--shard", config.num_shards) if role == "shard" else ("--node", config.num_hosts)
    )
    if index is None:
        raise ConfigurationError(f"--role {role} needs {option}")
    if not 0 <= index < count:
        raise ConfigurationError(f"{option} must be in [0, {count}), got {index}")
    if config.base_port == 0 and gateway is None and (role, index) != ("shard", 0):
        raise ConfigurationError(
            "ephemeral ports need --gateway HOST:PORT (the front door) to register with"
        )


async def serve_role(
    config: LiveConfig,
    role: str,
    *,
    index: int | None = None,
    gateway: tuple[str, int] | None = None,
    metrics_path: str | None = None,
    port_file: str | None = None,
    duration: float | None = None,
) -> dict:
    """Run one role of a multi-process deployment until signalled (or for
    ``duration`` s): ``shard`` ``index`` or ``host`` ``index``.

    Shard 0 is the front door; ``gateway`` is its address, which every
    other process joins.  With ephemeral ports a shard or host starts
    from an address book holding only that and registers its bound
    address there — shard 0 then re-announces the full book to every
    other shard; with fixed ports the book is complete from the config.
    """
    _check_role(config, role, index, gateway)
    directory = _role_directory(config, front=gateway)
    routes = RoutingDatabase(config.build_topology())
    ring = config.ring()
    front_door = (role, index) == ("shard", 0)
    if role == "host":
        server = LiveHostNode(index, config, routes, WallClock(), directory, ring=ring)
        port = await server.start(timers=False)
    else:
        server = LiveRedirector(
            config, routes, WallClock(), directory, shard=index, ring=ring
        )
        port = await server.start()
    address = (config.bind_host, port)
    if front_door:
        directory.set_redirector(address)
    _write_port_file(port_file, port)
    if role == "shard" and not front_door and gateway is not None:
        control = ControlPlane(directory)
        try:
            await control.register_shard(index, address)
        finally:
            await control.close()
    elif role == "host":
        if config.base_port == 0:
            await server.control.register_host(index, address)
        server.start_timers()
    print(f"{role} {index} up on {address[0]}:{port}", file=sys.stderr)
    try:
        await _wait(duration)
    finally:
        piece = server.snapshot()
        if role == "host":
            snapshot = {"kind": "live-host", "redirector": {}, "hosts": [piece]}
        else:
            snapshot = {"kind": "live-shard", "redirector": piece, "hosts": []}
        await server.stop()
        if metrics_path:
            write_metrics(metrics_path, snapshot)
    return snapshot


def _role_directory(
    config: LiveConfig, *, front: tuple[str, int] | None = None
) -> PeerDirectory:
    """The address book a standalone role process starts from.

    Fixed ports: complete from the config.  Ephemeral ports: empty but
    for the front door, which must then be given explicitly
    (``--gateway HOST:PORT``) — it is the registration rendezvous, and
    shard 0.
    """
    directory = (
        PeerDirectory.from_config(config) if config.base_port != 0 else PeerDirectory()
    )
    if front is not None:
        directory.set_redirector(front)
        directory.set_shard(0, front)
    return directory


__all__ = ["LocalDeployment", "serve_all", "serve_role"]
