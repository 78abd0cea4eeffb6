"""The retired per-object placement round, kept as a test oracle.

:class:`PerObjectEngine` is :class:`~repro.core.placement.PlacementEngine`
with the round that asked the redirector about each cold object on its
own: every last-unit drop is a one-object ``RequestDrop``, applied before
the round looks at the next object.  The engine groups consecutive
last-unit drops into one message; driven by the simulator, which answers
a run object by object, both must make the same arbitration calls in the
same order and leave the same state behind
(``tests/core/test_placement.py``).
"""

from __future__ import annotations

from repro.core.offload import run_offload
from repro.core.placement import AffinityOutcome, PlacementEngine


class PerObjectEngine(PlacementEngine):
    def run_host(self, node, now):
        system = self._system
        host = system.hosts[node]
        elapsed = now - host.last_placement_time
        if elapsed <= 0 or host.relocations_frozen:
            return False
        config = system.config
        host.update_mode()
        moved = False
        relieved = False
        for obj in host.store.objects():
            if obj not in host.store:
                continue
            affinity = host.store.affinity(obj)
            counts = host.object_access_counts(obj)
            total = counts.get(node, 0)
            unit_rate = total / affinity / elapsed
            if unit_rate < config.deletion_threshold:
                outcome = yield from self.reduce_affinity(node, obj)
                self._trace_drop(node, obj, outcome, affinity, unit_rate)
                if outcome is not AffinityOutcome.REFUSED:
                    moved = True
                continue
            if (yield from self._try_geo_move(
                host, obj, affinity, counts, total, unit_rate
            )):
                moved = True
                relieved = True
        if host.offloading and not relieved:
            yield from run_offload(system, self, host, now, elapsed)
        host.reset_access_counts(now)
        return moved
