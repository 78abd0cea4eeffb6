"""Greedy multi-object placement on arbitrary graphs.

The tree DP is exact but single-object and tree-only.  This module
covers the general case — many objects sharing per-host capacity on an
arbitrary topology (e.g. the UUNET backbone) — with a capacity-aware
greedy: each object first receives one mandatory replica (cheapest host
with room, largest objects placed first), then replicas are added
wherever they buy the largest drop in total demand-weighted distance,
re-assigning each gateway to its nearest replica after every addition.
Greedy k-median style placement is the standard approximation here; the
exact transportation solver in :mod:`repro.optimal.transport` is what
the gap harness uses when it needs a true lower bound.  No strategy or
harness calls this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.errors import ConfigurationError

Distance = Callable[[int, int], float]


def weighted_distance(
    demand: Mapping[int, float], hosts: Sequence[int], distance: Distance
) -> float:
    """Total demand-weighted distance to the nearest host in ``hosts``."""
    if not hosts:
        return math.inf
    return sum(
        weight * min(distance(gateway, host) for host in hosts)
        for gateway, weight in demand.items()
        if weight > 0
    )


def greedy_replica_set(
    demand: Mapping[int, float],
    candidates: Sequence[int],
    distance: Distance,
    count: int,
) -> tuple[int, ...]:
    """Pick ``count`` hosts greedily minimising demand-weighted distance.

    Classic greedy k-median: each round adds the candidate whose
    addition most reduces the total weighted distance to the nearest
    chosen host, breaking ties toward the lowest node id.
    """
    if count < 1:
        raise ConfigurationError("replica sets need at least one member")
    pool = sorted(set(candidates))
    if not pool:
        raise ConfigurationError("no candidate hosts to place on")
    points = [(g, w) for g, w in sorted(demand.items()) if w > 0]
    chosen: list[int] = []
    nearest = {g: math.inf for g, _ in points}
    while pool and len(chosen) < count:
        best_host = None
        best_cost = math.inf
        for host in pool:
            cost = sum(
                w * min(nearest[g], distance(g, host)) for g, w in points
            )
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_host = host
        if best_host is None:
            best_host = pool[0]
        chosen.append(best_host)
        pool.remove(best_host)
        for g, _ in points:
            nearest[g] = min(nearest[g], distance(g, best_host))
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class MultiObjectPlacement:
    """Result of the capacity-aware greedy placer."""

    #: ``placements[obj]`` — sorted replica hosts for each object.
    placements: Mapping[Hashable, tuple[int, ...]]
    #: Total demand-weighted distance under nearest-replica assignment.
    cost: float
    #: Demand units absorbed at each host.
    loads: Mapping[int, float]
    #: Objects whose mandatory replica did not fit any host's remaining
    #: capacity (placed anyway on the cheapest host, overflowing it).
    overflowed: tuple[Hashable, ...]
    #: Total replicas placed.
    replica_count: int


def greedy_multi_object_placement(
    demands: Mapping[Hashable, Mapping[int, float]],
    candidates: Sequence[int],
    distance: Distance,
    *,
    capacities: Mapping[int, float] | None = None,
    max_replicas_per_object: int = 3,
    replica_cost: float = 0.0,
) -> MultiObjectPlacement:
    """Place every object's replicas under a shared per-host capacity.

    ``demands`` maps each object to its per-gateway request weight.
    ``capacities`` bounds the demand a host absorbs across all objects
    (``None`` = unbounded).  ``replica_cost`` charges a fixed amount per
    extra replica, so improvement rounds only add copies whose distance
    savings exceed it.
    """
    if max_replicas_per_object < 1:
        raise ConfigurationError("objects need at least one replica")
    pool = sorted(set(candidates))
    if not pool:
        raise ConfigurationError("no candidate hosts to place on")
    caps = {h: math.inf for h in pool}
    if capacities is not None:
        caps = {h: float(capacities.get(h, 0.0)) for h in pool}
    loads = {h: 0.0 for h in pool}

    def nearest_split(
        demand: Mapping[int, float], hosts: Sequence[int]
    ) -> dict[int, float]:
        split = {h: 0.0 for h in hosts}
        for gateway, weight in sorted(demand.items()):
            if weight <= 0:
                continue
            server = min(hosts, key=lambda h: (distance(gateway, h), h))
            split[server] += weight
        return split

    # Mandatory replica per object, heaviest objects first so they get
    # first claim on scarce capacity.
    ordered = sorted(
        demands.items(), key=lambda item: (-sum(item[1].values()), str(item[0]))
    )
    placements: dict[Hashable, list[int]] = {}
    overflowed: list[Hashable] = []
    for obj, demand in ordered:
        total = sum(w for w in demand.values() if w > 0)
        fitting = [h for h in pool if caps[h] - loads[h] >= total]
        scored = fitting or pool
        host = min(
            scored,
            key=lambda h: (weighted_distance(demand, [h], distance), h),
        )
        if not fitting:
            overflowed.append(obj)
        placements[obj] = [host]
        loads[host] += total

    # Improvement rounds: add the single (object, host) replica with the
    # best net gain, re-splitting that object's demand by nearest host.
    while True:
        best = None
        best_gain = 1e-9
        for obj, demand in ordered:
            hosts = placements[obj]
            if len(hosts) >= max_replicas_per_object:
                continue
            current_cost = weighted_distance(demand, hosts, distance)
            current_split = nearest_split(demand, hosts)
            for host in pool:
                if host in hosts:
                    continue
                trial = hosts + [host]
                new_split = nearest_split(demand, trial)
                # Only the demand moving onto `host` needs headroom.
                if loads[host] + new_split[host] > caps[host] + 1e-9:
                    continue
                gain = (
                    current_cost
                    - weighted_distance(demand, trial, distance)
                    - replica_cost
                )
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best = (obj, host, current_split, new_split)
        if best is None:
            break
        obj, host, current_split, new_split = best
        placements[obj].append(host)
        for h, moved in current_split.items():
            loads[h] -= moved
        for h, moved in new_split.items():
            loads[h] += moved

    final = {obj: tuple(sorted(hosts)) for obj, hosts in placements.items()}
    cost = sum(
        weighted_distance(demands[obj], hosts, distance)
        for obj, hosts in final.items()
    )
    return MultiObjectPlacement(
        placements=final,
        cost=cost,
        loads={h: load for h, load in loads.items() if load > 0},
        overflowed=tuple(overflowed),
        replica_count=sum(len(hosts) for hosts in final.values()),
    )
