"""The per-event request generator, kept as the oracle for the window one.

This is the generator ``repro.workloads.base.RequestGenerator`` replaced:
one cancellable scheduler event per request, re-armed from inside each
firing.  It consumes its RNG stream in the order the window generator's
pre-draw loop reproduces (the gap to the next arrival, then the current
arrival's object), so the two must produce identical ``(time, gateway,
object)`` sequences; ``test_batched.py`` holds them to that.
"""

from __future__ import annotations

from repro.workloads.base import canonical_object_ids


class PerEventRequestGenerator:
    """Constant-rate request stream for one gateway, one event per request."""

    def __init__(self, sim, system, workload, gateway, rate, rng, *, poisson=False):
        self._sim = sim
        self._system = system
        self._workload = workload
        self.gateway = gateway
        self.rate = rate
        self._rng = rng
        self._poisson = poisson
        self._active = True
        self.generated = 0
        self._objects = canonical_object_ids(workload.num_objects)
        # Random phase so generators across gateways do not fire in sync.
        first = rng.random() / rate
        self._event = sim.schedule_after(first, self._fire)

    def _fire(self) -> None:
        delay = (
            self._rng.expovariate(self.rate) if self._poisson else 1.0 / self.rate
        )
        self._event = self._sim.schedule_after(delay, self._fire)
        obj = self._objects[self._workload.sample(self.gateway, self._rng)]
        self._system.submit_request(self.gateway, obj)
        self.generated += 1

    def stop(self) -> None:
        if self._active:
            self._active = False
            self._event.cancel()


def attach_per_event_generators(
    sim, system, workload, rate, rng_factory, *, gateways=None, poisson=False
):
    """``attach_generators`` with the per-event oracle (same RNG streams)."""
    nodes = (
        list(gateways)
        if gateways is not None
        else list(system.routes.topology.nodes)
    )
    return [
        PerEventRequestGenerator(
            sim,
            system,
            workload,
            node,
            rate,
            rng_factory.stream(f"gen-{node}"),
            poisson=poisson,
        )
        for node in nodes
    ]
