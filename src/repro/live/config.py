"""Deployment configuration for the live serving runtime.

A :class:`LiveConfig` describes one deployment — how many replica hosts,
which small backbone topology links them, the object population and its
initial placement, the listening addresses, and the protocol parameters
(scaled down from the paper's Table 1 so measurement and placement
windows are seconds, not minutes, and a laptop demo shows replication
within its first half-minute).

The config serialises to/from JSON so multi-process deployments can hand
every role process an identical world view: each process rebuilds the
same topology, routing database and initial placement from the config
alone, which is what makes the single-process and multi-process modes
interchangeable.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.schema import apply_overrides, flag
from repro.topology.generators import (
    line_topology,
    ring_topology,
    star_topology,
    two_cluster_topology,
)
from repro.topology.graph import Topology
from repro.types import NodeId, ObjectId

#: Topology families a live deployment may use.  The paper's UUNET
#: backbone is deliberately absent: live deployments are small local
#: clusters, and every topology node must correspond to a running host.
TOPOLOGIES = {
    "line": line_topology,
    "ring": ring_topology,
    "star": star_topology,
}


def live_protocol_config() -> ProtocolConfig:
    """Protocol parameters rescaled for wall-clock demos.

    Same shape as Table 1 (``m = 6u``, ``lw < hw``, default ratios) but
    with second-scale intervals and watermarks sized for a loadgen
    driving a few hundred requests/sec at a 3-host deployment: at
    250 req/s a host carries 60-120 req/s, so the low watermark sits
    above that band (offers stay acceptable under normal demo load)
    and the high watermark at 80% of the 200 req/s default capacity.
    """
    return ProtocolConfig(
        high_watermark=160.0,
        low_watermark=120.0,
        deletion_threshold=0.5,
        replication_threshold=3.0,
        measurement_interval=1.0,
        placement_interval=3.0,
    )


@dataclass(frozen=True, slots=True)
class LiveConfig:
    """One live deployment: world model plus addresses."""

    num_hosts: int = field(
        default=3, metadata=flag("--hosts", help="number of replica hosts")
    )
    topology: str = field(
        default="ring",
        metadata=flag(
            "--topology", help="backbone linking the hosts", choices=tuple(TOPOLOGIES)
        ),
    )
    num_objects: int = field(
        default=24, metadata=flag("--objects", help="hosted object count")
    )
    object_size: int = field(
        default=8192,
        metadata=flag(
            "--object-size",
            "BYTES",
            "bytes served per object request (and copied per replication)",
        ),
    )
    #: Host service capacity in requests/sec (Table 1 uses 200).
    capacity: float = 200.0
    storage_limit: int | None = None
    bind_host: str = field(
        default="127.0.0.1",
        metadata=flag("--bind", "HOST", "listen/connect address"),
    )
    #: Port layout.  With one shard (the PR-4 shape): the redirector
    #: listens on ``base_port`` and host ``i`` on ``base_port + 1 + i``.
    #: With ``num_shards > 1``: the gateway takes ``base_port``, shard
    #: ``s`` takes ``base_port + 1 + s`` and host ``i`` follows at
    #: ``base_port + 1 + num_shards + i``.  0 means "ephemeral ports":
    #: every server binds port 0 and addresses travel by registration
    #: (single-process deployments, tests, and the port-conflict-proof
    #: CI flow).
    base_port: int = field(
        default=8100,
        metadata=flag(
            "--base-port",
            "PORT",
            "front-door port; 0 binds ephemeral ports everywhere",
        ),
    )
    #: Consistent hashing (DESIGN §10); 1 = the unsharded PR-4 tier.
    num_shards: int = field(
        default=1,
        metadata=flag(
            "--shards", help="redirector shards partitioning the object namespace"
        ),
    )
    #: Virtual nodes per shard on the hash ring (ownership mapping —
    #: every participant must agree, so it lives in the shared config).
    ring_vnodes: int = 128
    #: Control-plane token-bucket rate per shard, mutations/sec
    #: (``None`` disables rate limiting; the in-flight bound and 429
    #: machinery stay active either way).
    control_rate_limit: float | None = None
    #: Token-bucket burst capacity for the control plane.
    control_burst: float = 64.0
    #: Bounded-queue backpressure: max control requests in flight per
    #: shard before 429s start.
    control_max_inflight: int = 256
    #: Optional token-bucket rate for ``GET /route`` (gateway and
    #: shards); ``None`` leaves the data plane unthrottled.
    route_rate_limit: float | None = None
    protocol: ProtocolConfig = field(default_factory=live_protocol_config)

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ConfigurationError("a deployment needs at least one host")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown live topology {self.topology!r}; "
                f"choose from {sorted(TOPOLOGIES)}"
            )
        if self.num_objects < 1:
            raise ConfigurationError("a deployment needs at least one object")
        if self.object_size < 1:
            raise ConfigurationError("object size must be at least 1 byte")
        if self.capacity <= 0:
            raise ConfigurationError("host capacity must be positive")
        if self.num_shards < 1:
            raise ConfigurationError("a deployment needs at least one shard")
        if self.ring_vnodes < 1:
            raise ConfigurationError("ring_vnodes must be at least 1")
        if self.control_rate_limit is not None and self.control_rate_limit <= 0:
            raise ConfigurationError("control_rate_limit must be positive")
        if self.control_burst < 1:
            raise ConfigurationError("control_burst must be at least 1")
        if self.control_max_inflight < 1:
            raise ConfigurationError("control_max_inflight must be at least 1")
        if self.route_rate_limit is not None and self.route_rate_limit <= 0:
            raise ConfigurationError("route_rate_limit must be positive")
        ports_needed = self.num_hosts + self._shard_port_offset()
        if self.base_port != 0 and not 1024 <= self.base_port <= 65535 - ports_needed:
            raise ConfigurationError(
                f"base port must be 0 (ephemeral) or leave room for "
                f"{ports_needed} ports below 65536, got {self.base_port}"
            )

    def _shard_port_offset(self) -> int:
        """Host ports start this far above ``base_port``.

        One shard keeps the PR-4 layout (redirector at base, hosts at
        +1); a sharded tier inserts the gateway at base and the shards
        at +1..+num_shards.
        """
        return 1 if self.num_shards == 1 else 1 + self.num_shards

    # ------------------------------------------------------------------
    # World model
    # ------------------------------------------------------------------

    def build_topology(self) -> Topology:
        return TOPOLOGIES[self.topology](self.num_hosts)

    def initial_host(self, obj: ObjectId) -> NodeId:
        """Original placement: object ``i`` starts on host ``i mod n``."""
        return obj % self.num_hosts

    def objects_for(self, node: NodeId) -> list[ObjectId]:
        """The objects whose original placement is ``node``."""
        return [
            obj for obj in range(self.num_objects) if self.initial_host(obj) == node
        ]

    # ------------------------------------------------------------------
    # Addresses
    # ------------------------------------------------------------------

    def redirector_address(self) -> tuple[str, int]:
        """The deployment's front door: the gateway when sharded, the
        single redirector otherwise.  Hosts and clients contact this."""
        return self.bind_host, self.base_port

    def gateway_address(self) -> tuple[str, int]:
        if self.num_shards == 1:
            raise ConfigurationError(
                "a single-shard deployment has no gateway; the redirector "
                "is the front door"
            )
        return self.bind_host, self.base_port

    def shard_address(self, shard: int) -> tuple[str, int]:
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"no shard {shard} in a {self.num_shards}-shard deployment"
            )
        if self.num_shards == 1:
            return self.redirector_address()
        port = 0 if self.base_port == 0 else self.base_port + 1 + shard
        return self.bind_host, port

    def host_address(self, node: NodeId) -> tuple[str, int]:
        if not 0 <= node < self.num_hosts:
            raise ConfigurationError(f"no host {node} in a {self.num_hosts}-host deployment")
        port = (
            0
            if self.base_port == 0
            else self.base_port + self._shard_port_offset() + node
        )
        return self.bind_host, port

    # ------------------------------------------------------------------
    # Serialisation (multi-process role handoff)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["protocol"] = dataclasses.asdict(self.protocol)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LiveConfig":
        """The defaults with ``payload`` applied, every key and value
        checked against the schema (``protocol`` is a nested mapping)."""
        if not isinstance(payload, dict):
            raise ConfigurationError("a live config is a JSON object")
        flat: dict[str, Any] = {}
        for key, value in payload.items():
            if isinstance(value, dict):
                flat.update({f"{key}.{k}": v for k, v in value.items()})
            else:
                flat[key] = value
        return apply_overrides(cls(), flat)

    @classmethod
    def from_file(cls, path: str | Path) -> "LiveConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load live config {path}: {exc}") from None

    def replace(self, **changes: Any) -> "LiveConfig":
        return dataclasses.replace(self, **changes)


class PeerDirectory:
    """Name → address book for one deployment.

    With fixed ports the directory is complete from the config alone;
    with ephemeral ports (tests) the deployment fills entries in as each
    server binds.
    """

    def __init__(self) -> None:
        self._hosts: dict[NodeId, tuple[str, int]] = {}
        self._shards: dict[int, tuple[str, int]] = {}
        self._redirector: tuple[str, int] | None = None

    @classmethod
    def from_config(cls, config: LiveConfig) -> "PeerDirectory":
        if config.base_port == 0:
            raise ConfigurationError(
                "ephemeral ports need a directory filled at bind time"
            )
        directory = cls()
        directory.set_redirector(config.redirector_address())
        for shard in range(config.num_shards):
            directory.set_shard(shard, config.shard_address(shard))
        for node in range(config.num_hosts):
            directory.set_host(node, config.host_address(node))
        return directory

    def set_host(self, node: NodeId, address: tuple[str, int]) -> None:
        self._hosts[node] = address

    def set_shard(self, shard: int, address: tuple[str, int]) -> None:
        self._shards[shard] = address

    def set_redirector(self, address: tuple[str, int]) -> None:
        self._redirector = address

    def host(self, node: NodeId) -> tuple[str, int]:
        try:
            return self._hosts[node]
        except KeyError:
            raise ConfigurationError(f"no address known for host {node}") from None

    def shard(self, shard: int) -> tuple[str, int]:
        try:
            return self._shards[shard]
        except KeyError:
            raise ConfigurationError(
                f"no address known for shard {shard}"
            ) from None

    def knows_shard(self, shard: int) -> bool:
        return shard in self._shards

    def knows_host(self, node: NodeId) -> bool:
        return node in self._hosts

    def redirector(self) -> tuple[str, int]:
        if self._redirector is None:
            raise ConfigurationError("no address known for the redirector")
        return self._redirector

    def hosts(self) -> dict[NodeId, tuple[str, int]]:
        return dict(self._hosts)

    def shards(self) -> dict[int, tuple[str, int]]:
        return dict(self._shards)

    def apply_peers(self, payload: dict) -> None:
        """Fold a ``/control/peers`` announcement in (gateway fan-out).

        The payload carries JSON-shaped maps (string keys, two-element
        address lists); unknown sections are ignored so old and new
        processes can coexist in one deployment.
        """
        for shard, address in (payload.get("shards") or {}).items():
            self.set_shard(int(shard), (str(address[0]), int(address[1])))
        for node, address in (payload.get("hosts") or {}).items():
            self.set_host(int(node), (str(address[0]), int(address[1])))
        redirector = payload.get("redirector")
        if redirector:
            self.set_redirector((str(redirector[0]), int(redirector[1])))

    def peers_payload(self) -> dict:
        """The JSON shape :meth:`apply_peers` consumes."""
        payload: dict = {
            "shards": {
                str(shard): list(address)
                for shard, address in self._shards.items()
            },
            "hosts": {
                str(node): list(address) for node, address in self._hosts.items()
            },
        }
        if self._redirector is not None:
            payload["redirector"] = list(self._redirector)
        return payload
