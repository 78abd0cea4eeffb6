"""The pre-PR-13 per-message fault verdict, kept verbatim as a test oracle.

``FaultPlane.transit`` built a frozen dataclass per message, took a route
thunk, and resolved the per-class drop probability by attribute name on
every call.  ``FaultPlane.verdict`` replaced it in ``src/``; this copy is
what the replacement is compared against (same verdicts, same counters,
same RNG draws in the same order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.network.faults import FaultConfig
from repro.network.message import MessageClass


@dataclass(frozen=True, slots=True)
class Transit:
    """``copies`` is how many times the bytes are charged (1 when dropped)."""

    dropped: bool
    extra_delay: float = 0.0
    copies: int = 1


_DELIVERED = Transit(dropped=False)


class TransitOracle:
    """Counters, link/partition state and ``transit`` of the old plane."""

    def __init__(self, config: FaultConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self.dropped = {cls: 0 for cls in MessageClass}
        self.link_drops = 0
        self.duplicated = 0
        self.down_links: set[tuple[int, int]] = set()
        self.partitions: list[frozenset[int]] = []

    def drop_for(self, message_class: MessageClass) -> float:
        override = getattr(self.config, f"drop_prob_{message_class.value}")
        return self.config.drop_prob if override is None else override

    def crosses_fault(
        self, source: int, target: int, route: Callable[[], Sequence[int]]
    ) -> bool:
        for group in self.partitions:
            if (source in group) != (target in group):
                return True
        if self.down_links:
            path = route()
            for a, b in zip(path, path[1:]):
                if ((a, b) if a < b else (b, a)) in self.down_links:
                    return True
        return False

    def transit(
        self,
        source: int,
        target: int,
        message_class: MessageClass,
        delay: float,
        route: Callable[[], Sequence[int]],
    ) -> Transit:
        if (self.down_links or self.partitions) and self.crosses_fault(
            source, target, route
        ):
            self.link_drops += 1
            return Transit(dropped=True)
        config = self.config
        prob = self.drop_for(message_class)
        if prob > 0.0 and self._rng.random() < prob:
            self.dropped[message_class] += 1
            return Transit(dropped=True)
        copies = 1
        if config.duplicate_prob > 0.0 and self._rng.random() < config.duplicate_prob:
            copies = 2
            self.duplicated += 1
        extra = 0.0
        if config.delay_jitter > 0.0 and delay > 0.0:
            extra = delay * config.delay_jitter * self._rng.random()
        if copies == 1 and extra == 0.0:
            return _DELIVERED
        return Transit(dropped=False, extra_delay=extra, copies=copies)
