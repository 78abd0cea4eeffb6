"""Per-request preference-path walks: the access-count oracle.

This is the accounting ``HostServer.record_service`` did before the
counts were deferred: every serviced request walks its preference path
and increments ``cnt(p, x_s)`` for each node on it, at service time.
Kept verbatim (minus the load meter, which did not change) so the
property test can hold the deferred counts to it under any interleaving
of services, reads, resets and clears.
"""

from __future__ import annotations


class PathWalkCounts:
    """``cnt(p, x_s)`` of one host, expanded eagerly."""

    def __init__(self, node, path_resolver):
        self.node = node
        self.path_resolver = path_resolver
        self.access_counts = {}

    def record_service(self, obj, gateway):
        counts = self.access_counts.get(obj)
        if counts is None:
            counts = {}
            self.access_counts[obj] = counts
        for node in self.path_resolver(gateway):
            counts[node] = counts.get(node, 0) + 1

    def object_access_counts(self, obj):
        return self.access_counts.get(obj, {})

    def total_access_count(self, obj):
        return self.access_counts.get(obj, {}).get(self.node, 0)

    def reset_access_counts(self, now):
        self.access_counts.clear()

    def clear_object_state(self, obj):
        self.access_counts.pop(obj, None)
