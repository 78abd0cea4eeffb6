"""Consistent-hash partitioning of the object namespace across shards.

The sharded live redirector tier (DESIGN §10) splits the replica
registry by *object id*: every object has exactly one owning shard, and
every control-plane conversation about an object (``replica_created``,
``affinity_reduced``, drop arbitration) must land on that owner.  The
mapping therefore has to be

* **deterministic across processes** — every process of a deployment
  (the front door, every other shard, each host's control plane), the
  load generator and the tests rebuild the ring independently from the
  deployment config and must agree on every key.  Hashes come from
  :mod:`hashlib` (never :func:`hash`, which is salted per process);
* **stable under resharding** — growing the tier from *n* to *n+1*
  shards must move only ~``1/(n+1)`` of the keys, so a rebalance does
  not invalidate the whole registry.

Classic consistent hashing: each shard contributes ``vnodes`` points on
a 64-bit ring, a key is owned by the first point at or clockwise after
its own hash.  Instances are immutable; :meth:`with_shard` /
:meth:`without_shard` build resized rings for rebalance planning.
:meth:`owners` tabulates a namespace of integer ids once, so a process
that looks the same ids up on every request indexes a tuple instead of
hashing.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable

from repro.errors import ConfigurationError

#: Default virtual nodes per shard.  128 points per shard keeps the
#: per-shard key share within a few percent of 1/n for small tiers
#: while the ring stays tiny (n * 128 sorted ints).
DEFAULT_VNODES = 128


def _hash64(data: str) -> int:
    """A stable 64-bit ring position (sha1, process-independent)."""
    return int.from_bytes(hashlib.sha1(data.encode("ascii")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring mapping keys to shard ids."""

    __slots__ = ("_points", "_owners", "_table", "shards", "vnodes")

    def __init__(self, shards: int | Iterable[int], *, vnodes: int = DEFAULT_VNODES) -> None:
        if isinstance(shards, int):
            if shards < 1:
                raise ConfigurationError("a ring needs at least one shard")
            shard_ids: tuple[int, ...] = tuple(range(shards))
        else:
            shard_ids = tuple(sorted(set(shards)))
            if not shard_ids:
                raise ConfigurationError("a ring needs at least one shard")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be at least 1")
        self.shards = shard_ids
        self.vnodes = vnodes
        points = []
        for shard in shard_ids:
            for vnode in range(vnodes):
                points.append((_hash64(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._points = [position for position, _ in points]
        self._owners = [shard for _, shard in points]
        self._table: tuple[int, ...] = ()

    def owner(self, key: int | str) -> int:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        position = _hash64(f"key:{key}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[index]

    def owners(self, count: int) -> tuple[int, ...]:
        """``owner(key)`` for every key in ``range(count)``, by index.

        Built on the first call and kept: one ring serves one namespace,
        so every later call for the same ``count`` returns the same table.
        """
        if len(self._table) != count:
            self._table = tuple(self.owner(key) for key in range(count))
        return self._table

    def owned_by(self, shard: int, keys: Iterable[int | str]) -> list:
        """The subset of ``keys`` owned by ``shard`` (order preserved)."""
        return [key for key in keys if self.owner(key) == shard]

    def with_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` added (for rebalance planning)."""
        return HashRing([*self.shards, shard], vnodes=self.vnodes)

    def without_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` removed."""
        return HashRing(
            [s for s in self.shards if s != shard], vnodes=self.vnodes
        )

    def __len__(self) -> int:
        return len(self.shards)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return self.shards == other.shards and self.vnodes == other.vnodes

    def __hash__(self) -> int:
        return hash((self.shards, self.vnodes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(shards={self.shards}, vnodes={self.vnodes})"


__all__ = ["DEFAULT_VNODES", "HashRing"]
