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
from repro.routing.hashring import HashRing
from repro.schema import apply_overrides, flag
from repro.topology.generators import line_topology, ring_topology, star_topology
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
    #: Port layout: shard ``s`` listens on ``base_port + s`` (shard 0 is
    #: the front door) and host ``i`` on ``base_port + num_shards + i``.
    #: 0 means "ephemeral ports": every server binds port 0 and
    #: addresses travel by registration (single-process deployments,
    #: tests, and the port-conflict-proof CI flow).
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
        ports_needed = self.num_shards + self.num_hosts
        if self.base_port != 0 and not 1024 <= self.base_port <= 65535 - ports_needed:
            raise ConfigurationError(
                f"base port must be 0 (ephemeral) or leave room for "
                f"{ports_needed} ports below 65536, got {self.base_port}"
            )

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

    def ring(self) -> HashRing:
        """The ring partitioning the object namespace across the shards.

        A process builds it once and hands it to every shard and host it
        runs; ``ring.owners(num_objects)`` is then the one owner table
        they all index.
        """
        return HashRing(self.num_shards, vnodes=self.ring_vnodes)

    # ------------------------------------------------------------------
    # Addresses
    # ------------------------------------------------------------------

    def redirector_address(self) -> tuple[str, int]:
        """The deployment's front door, shard 0.  Clients and joining
        processes contact this."""
        return self.shard_address(0)

    def shard_address(self, shard: int) -> tuple[str, int]:
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"no shard {shard} in a {self.num_shards}-shard deployment"
            )
        return self.bind_host, self.base_port and self.base_port + shard

    def host_address(self, node: NodeId) -> tuple[str, int]:
        if not 0 <= node < self.num_hosts:
            raise ConfigurationError(f"no host {node} in a {self.num_hosts}-host deployment")
        return self.bind_host, self.base_port and self.base_port + self.num_shards + node

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


def peer_address(value: Any, what: str) -> tuple[str, int]:
    """A ``[host, port]`` pair off the wire, checked before anyone dials it."""
    if not (
        isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
        and type(value[1]) is int and 0 < value[1] < 65536
    ):
        raise ConfigurationError(f"{what} must be [host, port], got {value!r}")
    return value[0], value[1]


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
        """Fold a ``/control/peers`` announcement in (shard 0's fan-out).

        The payload carries JSON-shaped maps (string keys, two-element
        address lists); unknown sections are ignored so old and new
        processes can coexist in one deployment.  Every entry is checked
        before any is applied: a bad one raises
        :class:`ConfigurationError` and leaves the book as it was.
        """
        shards, hosts = (
            self._address_book(payload.get(section) or {}, section)
            for section in ("shards", "hosts")
        )
        redirector = payload.get("redirector")
        if redirector:
            self._redirector = peer_address(redirector, "peers redirector")
        self._shards.update(shards)
        self._hosts.update(hosts)

    @staticmethod
    def _address_book(entries: Any, section: str) -> dict[int, tuple[str, int]]:
        if not (isinstance(entries, dict) and all(map(str.isdecimal, entries))):
            raise ConfigurationError(f"peers {section} must map integer ids to addresses")
        return {
            int(key): peer_address(address, f"peers {section}.{key}")
            for key, address in entries.items()
        }

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
