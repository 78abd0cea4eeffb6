"""The seeded network fault model layered under :class:`~repro.network.transport.Network`.

The paper specifies its protocols over a reliable backbone; this module
supplies the unreliable one a real hosting service runs on.  A
:class:`FaultConfig` describes *what* can go wrong — per-message-class
drop probability, delivery duplication, delay jitter, and scheduled
link/partition outages plus host-outage parameters — and a
:class:`FaultPlane` is the runtime that rolls those dice deterministically
from a named RNG stream of the scenario seed.

Zero-cost-when-off guarantee
----------------------------
A ``Network`` with no fault plane attached (``faults.enabled`` false in
the scenario config) takes exactly the pre-fault code path: no RNG is
constructed, no draws happen, and every byte/delay computation is
bit-identical to the reliable transport.  All fault machinery hangs off
one ``is None`` check.

Verdict contract
----------------
:meth:`Network.transmit <repro.network.transport.Network.transmit>`
decides one message's fate from this plane's tables and counters, in
the frame that charges its bytes.  ``copies`` is how many times the
message is *delivered* — 0 dropped, 1 normal, 2 duplicated — and jitter
is added to its base delay.  The transport charges the message's bytes
``max(copies, 1)`` times: a dropped message still charges its bytes
once (it was transmitted and lost en route — the granularity of the
per-link model is whole messages); a duplicated message charges them
twice.  Link and partition outages are checked first and drop
deterministically (no RNG draw is consumed for them); then the draws
happen in a fixed order — drop, duplicate, jitter — and each only when
its probability (or the jitter fraction and the base delay) is
non-zero, so a fixed seed yields a fixed fault history.
Jitter is uniform in ``[0, delay_jitter * delay]``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.network.message import MessageClass
from repro.schema import AT_DEFAULT, flag
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routing.routes_db import RoutingDatabase


def _schedule_entry(text: str, shape: str, who: Callable[[str], Any]) -> tuple:
    """One ``outages`` / ``partitions`` entry from its ``shape`` text."""
    try:
        nodes, at, duration = text.split(":")
        return who(nodes), float(at), float(duration)
    except ValueError:
        raise ConfigurationError(
            f"bad schedule entry {text!r}; expected {shape}"
        ) from None


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Everything that can go wrong with the backbone, as plain scalars.

    Attributes
    ----------
    enabled:
        Master switch.  When false the scenario builds no fault plane at
        all and every code path is byte-identical to the reliable system.
    drop_prob:
        Baseline per-message drop probability, applied to every message
        class without an explicit override below.
    drop_prob_request, drop_prob_response, drop_prob_control,
    drop_prob_relocation, drop_prob_update:
        Per-class overrides (``None`` = use ``drop_prob``).  Relocation
        "drops" model failed bulk-transfer rounds: the bytes are charged,
        and the copy is re-sent or given up as its retry row says.
    duplicate_prob:
        Probability a delivered message arrives twice (its bytes are
        charged twice; receivers deduplicate).
    delay_jitter:
        Maximum extra delivery delay as a fraction of the base delay
        (uniform in ``[0, delay_jitter * delay]``).
    detection, heartbeat_interval, heartbeat_miss_threshold,
    request_failure_threshold:
        Heartbeat-based failure detection: hosts heartbeat the monitor
        every ``heartbeat_interval`` seconds; a host missing
        ``heartbeat_miss_threshold`` consecutive intervals — or causing
        ``request_failure_threshold`` consecutive request failures — is
        marked down on every redirector.
    repair, repair_interval:
        The repair daemon: every ``repair_interval`` seconds it
        re-replicates objects whose last live copy sits on a crashed
        host, restoring the bytes from the service's stable store.
    mtbf, mttr:
        When both are set, the scenario runner schedules random host
        outages (exponential inter-failure and repair times) over the
        run from the seed-derived ``"outages"`` RNG stream.
    outages:
        Explicit ``(node, at, duration)`` host-outage schedule, applied
        in addition to the random schedule.
    partitions:
        Explicit ``(nodes, at, duration)`` network-partition schedule:
        each entry splits ``nodes`` away from the rest of the backbone
        at ``at`` for ``duration`` seconds.  Partition drops are
        deterministic (no RNG draw), so partition-only scenarios have
        seed-stable fault histories.
    """

    enabled: bool = False
    drop_prob: float = field(
        default=0.0,
        metadata=flag("--loss", "P", "per-message drop probability in [0, 1)"),
    )
    drop_prob_request: float | None = None
    drop_prob_response: float | None = None
    drop_prob_control: float | None = None
    drop_prob_relocation: float | None = None
    drop_prob_update: float | None = None
    duplicate_prob: float = field(
        default=0.0,
        metadata=flag("--dup", "P", "per-message duplication probability in [0, 1)"),
    )
    delay_jitter: float = field(
        default=0.0,
        metadata=flag(
            "--jitter", "F", "extra delay jitter as a fraction of the base delay"
        ),
    )
    detection: bool = True
    heartbeat_interval: float = 5.0
    heartbeat_miss_threshold: int = 3
    request_failure_threshold: int = 3
    repair: bool = True
    repair_interval: float = 10.0
    mtbf: float | None = field(
        default=None,
        metadata=flag(
            "--mtbf", "S", "mean time between host failures (with --mttr: random outages)"
        ),
    )
    mttr: float | None = field(
        default=None, metadata=flag("--mttr", "S", "mean time to repair a failed host")
    )
    outages: tuple[tuple[int, float, float], ...] = field(
        default=(),
        metadata=flag(
            "--outage",
            "NODE:AT:DUR",
            "crash NODE at AT seconds for DUR seconds (repeatable)",
            parse=partial(_schedule_entry, shape="NODE:AT:DUR", who=int),
        ),
    )
    partitions: tuple[tuple[tuple[int, ...], float, float], ...] = field(
        default=(),
        metadata=flag(
            "--partition",
            "NODES:AT:DUR",
            "partition the comma-separated NODES from the rest at AT seconds "
            "for DUR seconds, e.g. 0,1,2:90:60 (repeatable)",
            parse=partial(
                _schedule_entry,
                shape="NODES:AT:DUR",
                who=lambda nodes: tuple(int(node) for node in nodes.split(",")),
            ),
            hash=AT_DEFAULT,
        ),
    )

    def __post_init__(self) -> None:
        for name in (
            "drop_prob",
            "drop_prob_request",
            "drop_prob_response",
            "drop_prob_control",
            "drop_prob_relocation",
            "drop_prob_update",
            "duplicate_prob",
        ):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {value}"
                )
        if self.delay_jitter < 0:
            raise ConfigurationError(
                f"delay_jitter must be non-negative, got {self.delay_jitter}"
            )
        if self.heartbeat_interval <= 0 or self.repair_interval <= 0:
            raise ConfigurationError("detection/repair intervals must be positive")
        if self.heartbeat_miss_threshold < 1 or self.request_failure_threshold < 1:
            raise ConfigurationError("detection thresholds must be at least 1")
        if (self.mtbf is None) != (self.mttr is None):
            raise ConfigurationError("mtbf and mttr must be set together")
        if self.mtbf is not None and (self.mtbf <= 0 or self.mttr <= 0):
            raise ConfigurationError("mtbf and mttr must be positive")
        # Normalise the outage schedule into hashable tuples and validate.
        normalised = tuple(
            (int(node), float(at), float(duration))
            for node, at, duration in self.outages
        )
        object.__setattr__(self, "outages", normalised)
        for node, at, duration in self.outages:
            if at < 0 or duration <= 0:
                raise ConfigurationError(
                    f"bad outage ({node}, {at}, {duration}): need at >= 0 "
                    "and a positive duration"
                )
        partitions = tuple(
            (tuple(sorted(int(node) for node in nodes)), float(at), float(duration))
            for nodes, at, duration in self.partitions
        )
        object.__setattr__(self, "partitions", partitions)
        for nodes, at, duration in self.partitions:
            if not nodes:
                raise ConfigurationError("a partition needs at least one node")
            if at < 0 or duration <= 0:
                raise ConfigurationError(
                    f"bad partition ({nodes}, {at}, {duration}): need "
                    "at >= 0 and a positive duration"
                )

    def drop_for(self, message_class: MessageClass) -> float:
        """The effective drop probability for one message class."""
        override = getattr(self, f"drop_prob_{message_class.value}")
        return self.drop_prob if override is None else override

    def replace(self, **changes) -> "FaultConfig":
        """A copy with field changes, revalidated (sweep override hook)."""
        return dataclasses.replace(self, **changes)


class FaultPlane:
    """Runtime fault state: RNG draws, counters, link/partition schedules.

    One plane serves one scenario run; it is attached to the
    :class:`~repro.network.transport.Network` and consulted by the RPC
    layer.  All randomness comes from the single ``rng`` stream, so a
    fixed seed yields a fixed fault history regardless of worker count.
    """

    def __init__(self, config: FaultConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        # The config is frozen, so everything the per-message verdict
        # (``Network.transmit``) reads is tabulated once: no attribute
        # chain, no per-class ``getattr`` by name, no bound-method
        # creation per draw.
        self._random = rng.random
        self._drop_prob: dict[MessageClass, float] = {
            cls: config.drop_for(cls) for cls in MessageClass
        }
        self._duplicate_prob = config.duplicate_prob
        self._delay_jitter = config.delay_jitter
        #: Messages dropped by random loss, per message class.
        self.dropped: dict[MessageClass, int] = {cls: 0 for cls in MessageClass}
        #: Messages dropped because their route crossed a failed link or
        #: a partition boundary.
        self.link_drops = 0
        self.duplicated = 0
        #: Failed links as (a, b) with a < b -> active outage count.
        self._down_links: dict[tuple[NodeId, NodeId], int] = {}
        #: Active partitions: messages crossing any group boundary drop.
        self._partitions: list[frozenset[NodeId]] = []

    # ------------------------------------------------------------------
    # Link and partition schedules
    # ------------------------------------------------------------------

    @staticmethod
    def _link_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
        return (a, b) if a < b else (b, a)

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Take the link ``a — b`` down (reference-counted)."""
        key = self._link_key(a, b)
        self._down_links[key] = self._down_links.get(key, 0) + 1

    def restore_link(self, a: NodeId, b: NodeId) -> None:
        """Bring one outage of the link ``a — b`` back up."""
        key = self._link_key(a, b)
        count = self._down_links.get(key, 0)
        if count <= 0:
            raise ConfigurationError(f"link {key} is not failed")
        if count == 1:
            del self._down_links[key]
        else:
            self._down_links[key] = count - 1

    def start_partition(self, nodes: Sequence[NodeId]) -> frozenset[NodeId]:
        """Partition ``nodes`` away from the rest of the backbone."""
        group = frozenset(nodes)
        if not group:
            raise ConfigurationError("a partition needs at least one node")
        self._partitions.append(group)
        return group

    def heal_partition(self, group: frozenset[NodeId]) -> None:
        """End a partition previously returned by :meth:`start_partition`."""
        try:
            self._partitions.remove(group)
        except ValueError:
            raise ConfigurationError("partition is not active") from None

    def schedule_link_outage(self, sim, a: NodeId, b: NodeId, at: Time, duration: Time) -> None:
        """Fail the link ``a — b`` at ``at`` for ``duration`` seconds."""
        if duration <= 0:
            raise ConfigurationError("link outage duration must be positive")
        sim.schedule_at(at, self.fail_link, a, b)
        sim.schedule_at(at + duration, self.restore_link, a, b)

    def schedule_partition(
        self, sim, nodes: Sequence[NodeId], at: Time, duration: Time
    ) -> None:
        """Partition ``nodes`` from the rest at ``at`` for ``duration`` s."""
        if duration <= 0:
            raise ConfigurationError("partition duration must be positive")
        group = frozenset(nodes)
        if not group:
            raise ConfigurationError("a partition needs at least one node")
        sim.schedule_at(at, self._partitions.append, group)
        sim.schedule_at(at + duration, self.heal_partition, group)

    @property
    def has_topology_faults(self) -> bool:
        return bool(self._down_links or self._partitions)

    def crosses_fault(
        self, source: NodeId, target: NodeId, routes: "RoutingDatabase"
    ) -> bool:
        """Whether the source-target route crosses a failed link/partition.

        The (cached but non-free) route is only resolved while a link
        outage is active; partitions are decided by the endpoints alone.
        """
        for group in self._partitions:
            if (source in group) != (target in group):
                return True
        down = self._down_links
        if down:
            path = routes.route(source, target)
            for a, b in zip(path, path[1:]):
                if ((a, b) if a < b else (b, a)) in down:
                    return True
        return False

    # ------------------------------------------------------------------
    # RPC draws
    # ------------------------------------------------------------------

    def backoff_jitter(self) -> float:
        """One uniform draw in [0, 1) for RPC backoff jitter."""
        return self._rng.random()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_dropped(self) -> int:
        """Messages lost to random loss plus link/partition outages."""
        return sum(self.dropped.values()) + self.link_drops

    def summary(self) -> dict[str, float]:
        """Counter snapshot for metrics export."""
        return {
            "messages_dropped": float(self.total_dropped()),
            "messages_dropped_links": float(self.link_drops),
            "messages_duplicated": float(self.duplicated),
        }
