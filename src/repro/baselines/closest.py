"""Closest-replica request distribution (the proximity-only strawman).

Always sends a request to the replica nearest its gateway.  This is the
selection rule the ADR and WebWave protocols assume; Section 3 shows why
it breaks load sharing: a host swamped by requests from its own vicinity
stays swamped no matter how many remote replicas are created.
"""

from __future__ import annotations

from repro.core.redirector import RedirectorService
from repro.types import NodeId, ObjectId


class ClosestReplicaRedirector(RedirectorService):
    """Chooses the replica with minimum hop distance to the gateway."""

    def choose_replica(
        self, gateway: NodeId, obj: ObjectId, *, exclude: NodeId | None = None
    ) -> NodeId | None:
        available = [h for h in self.available_replica_hosts(obj) if h != exclude]
        if not available:
            return None
        row = self._routes.distance_row(gateway)
        return min(available, key=lambda host: (row[host], host))
