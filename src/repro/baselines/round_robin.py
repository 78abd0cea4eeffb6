"""Round-robin request distribution (the load-only strawman of Section 3).

Distributes each object's requests over its replicas in strict rotation,
ignoring proximity entirely.  In the America/Europe example this sends
half the American requests across the Atlantic even though a local
replica exists.
"""

from __future__ import annotations

from repro.core.redirector import RedirectorService
from repro.types import NodeId, ObjectId


class RoundRobinRedirector(RedirectorService):
    """Chooses replicas in rotation, weighted by nothing."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cursor: dict[ObjectId, int] = {}

    def choose_replica(
        self, gateway: NodeId, obj: ObjectId, *, exclude: NodeId | None = None
    ) -> NodeId | None:
        hosts = sorted(h for h in self.available_replica_hosts(obj) if h != exclude)
        if not hosts:
            return None
        index = self._cursor.get(obj, 0) % len(hosts)
        self._cursor[obj] = index + 1
        return hosts[index]
