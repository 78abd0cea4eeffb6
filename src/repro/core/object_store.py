"""A host's local replica store.

Each host keeps, per object it hosts, the replica's *affinity* — "a
compact way of representing multiple replicas of the same object on the
same host" (Section 3).  Affinity starts at 1 on creation, is incremented
when a migration/replication targets a host that already has a replica,
and decremented by ``ReduceAffinity``; at affinity 0 the replica is gone.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ProtocolError
from repro.types import ObjectId


class ObjectStore:
    """The set of object replicas (with affinities) on one host."""

    __slots__ = ("_affinity",)

    def __init__(self) -> None:
        self._affinity: dict[ObjectId, int] = {}

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._affinity

    def __len__(self) -> int:
        return len(self._affinity)

    def objects(self) -> list[ObjectId]:
        """Hosted object ids (insertion order, stable across a run)."""
        return list(self._affinity)

    def affinity(self, obj: ObjectId) -> int:
        """The affinity of the local replica of ``obj``."""
        try:
            return self._affinity[obj]
        except KeyError:
            raise ProtocolError(f"object {obj} not hosted here") from None

    def add(self, obj: ObjectId) -> int:
        """Create a replica (affinity 1) or increment an existing affinity.

        Returns the new affinity.  This is exactly the CreateObj action:
        "create a new replica of x on j with affinity 1 or, if j already
        has it, increment its affinity by 1".
        """
        new_affinity = self._affinity.get(obj, 0) + 1
        self._affinity[obj] = new_affinity
        return new_affinity

    def add_new(self, objs: Iterable[ObjectId]) -> ObjectId | None:
        """Create an affinity-1 replica of each of ``objs``, all or nothing.

        Returns ``None``, or the first of ``objs`` already hosted here —
        in which case nothing was added.  ``objs`` is iterated twice.
        """
        affinity = self._affinity
        for obj in objs:
            if obj in affinity:
                return obj
        affinity.update(dict.fromkeys(objs, 1))
        return None

    def reduce(self, obj: ObjectId) -> int:
        """Decrement the affinity; drop the replica when it reaches 0.

        Returns the new affinity (0 means the replica was dropped).
        Callers must have secured redirector approval before dropping the
        last replica system-wide; this method only manages local state.
        """
        affinity = self.affinity(obj)
        if affinity == 1:
            del self._affinity[obj]
            return 0
        self._affinity[obj] = affinity - 1
        return affinity - 1

    def drop(self, obj: ObjectId) -> None:
        """Remove the replica outright, whatever its affinity."""
        if obj not in self._affinity:
            raise ProtocolError(f"object {obj} not hosted here")
        del self._affinity[obj]

    def total_affinity(self) -> int:
        """Sum of affinities over all hosted objects."""
        return sum(self._affinity.values())
