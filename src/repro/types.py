"""Shared primitive types and identifiers used across the library.

The paper's system model (Section 2) contains *nodes* (a router plus a
co-located hosting server), *objects* (Web documents identified by a
URL-like id), *gateways* (nodes through which client requests enter the
platform), *distributors* and *redirectors*.  We identify nodes by dense
integer ids so they double as indices into distance matrices, and objects
by integers as in the paper's simulation ("object *i* is assigned to node
*i* mod 53").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

#: A backbone node identifier (router + co-located hosting server).
NodeId = int

#: A hosted Web object identifier.
ObjectId = int

#: Simulated time, in seconds.
Time = float


@lru_cache(maxsize=8)
def canonical_object_ids(num_objects: int) -> tuple[ObjectId, ...]:
    """One canonical ``int`` object per object id.

    Workload samplers produce fresh ``int`` boxes on every draw; mapping
    them through this table interns them, and the initial placement keys
    every store and the registry by it, so the whole system hashes and
    compares one shared object per id (dict lookups short-circuit on
    identity) and holds one box per id.  Pure value mapping — RNG draw
    order and sampled values are untouched.
    """
    return tuple(range(num_objects))


class PlacementAction(enum.Enum):
    """The kind of replica-set change performed by the placement protocol."""

    REPLICATE = "replicate"
    MIGRATE = "migrate"
    DROP = "drop"


class PlacementReason(enum.Enum):
    """Why a replica-set change happened (Section 2.2 terminology).

    An object is *geo*-migrated/replicated when moved for proximity to
    client requests, and *load*-migrated/replicated when moved because the
    source host is offloading.  *Repair* replications (robustness
    extension) restore an object whose last live replica sat on a
    crashed host.
    """

    GEO = "geo"
    LOAD = "load"
    REPAIR = "repair"


@dataclass(frozen=True, slots=True)
class PlacementEvent:
    """A record of one replica-set change, for metrics and debugging."""

    time: Time
    action: PlacementAction
    reason: PlacementReason
    obj: ObjectId
    source: NodeId
    target: NodeId | None
    #: Whether a fresh copy of the object's bytes had to cross the backbone
    #: (False when the target already held a replica and only its affinity
    #: was incremented, or for drops).
    copied_bytes: int = 0


@dataclass(slots=True)
class ReplicaInfo:
    """A redirector's view of one replica: host plus affinity (Sec. 3).

    Affinity is "a compact way of representing multiple replicas of the
    same object on the same host": it starts at 1 and is incremented when
    an object is migrated or replicated onto a host that already holds a
    replica.
    """

    host: NodeId
    affinity: int = 1
    request_count: int = 1

    @property
    def unit_request_count(self) -> float:
        """``rcnt / aff`` — the request count per affinity unit."""
        return self.request_count / self.affinity


@dataclass(slots=True)
class LoadSample:
    """One periodic load measurement for a host (Section 2.1)."""

    time: Time
    load: float
    lower_estimate: float = field(default=0.0)
    upper_estimate: float = field(default=0.0)
