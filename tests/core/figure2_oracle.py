"""The original tuple-keyed Figure 2 (ChooseReplica) implementation.

Kept verbatim as the oracle for the property test that pins the
optimised ``RedirectorService.choose_replica`` (and with it the request
fast lane's inlined sole-replica branch) to the exact reference decision
sequence.  It runs against a service's own registry, so counters and
reset state can be compared afterwards.
"""

from __future__ import annotations

from repro.core.redirector import RedirectorService
from repro.types import NodeId, ObjectId, ReplicaInfo
from tests.conftest import replica_infos


def choose_replica_reference(
    service: RedirectorService,
    gateway: NodeId,
    obj: ObjectId,
    *,
    exclude: NodeId | None = None,
) -> NodeId | None:
    replicas = replica_infos(service, obj)
    if len(replicas) == 1 and not service._down_hosts and exclude is None:
        (info,) = replicas.values()
        info.request_count += 1
        service.chose_closest += 1
        return info.host
    row = service._routes.distance_row(gateway)
    down = service._down_hosts
    closest: ReplicaInfo | None = None
    closest_key: tuple[int, float, int] = (0, 0.0, 0)
    least: ReplicaInfo | None = None
    least_ratio = 0.0
    for host, info in replicas.items():
        if host in down or host == exclude:
            continue
        ratio = info.request_count / info.affinity
        distance_key = (row[host], ratio, host)
        if closest is None or distance_key < closest_key:
            closest, closest_key = info, distance_key
        if least is None or ratio < least_ratio or (
            ratio == least_ratio and host < least.host
        ):
            least, least_ratio = info, ratio
    if closest is None or least is None:
        return None
    ratio1 = closest.request_count / closest.affinity
    if ratio1 / service._constant > least_ratio:
        chosen = least
        service.chose_least_requested += 1
    else:
        chosen = closest
        service.chose_closest += 1
    chosen.request_count += 1
    return chosen.host
