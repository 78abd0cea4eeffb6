"""Baseline policies and the strategy registry.

The paper argues against several simpler policies (Sections 1, 3 and 4);
this package implements them and exposes them all through a single
:data:`STRATEGIES` registry so the CLI, the sweep engine and the gap
harness resolve baselines by name instead of ad-hoc imports.  A strategy
is fixed at build time: config overrides plus, optionally, an initial
placement.

* ``paper`` — the full dynamic protocol (the default; no changes).
* ``static`` — the initial round-robin placement, frozen (every
  figure's t=0 level).
* ``round-robin`` — dynamic protocol but proximity-oblivious request
  distribution (:class:`~repro.baselines.round_robin.RoundRobinRedirector`).
* ``closest`` — dynamic protocol but always-the-closest-replica
  distribution (:class:`~repro.baselines.closest.ClosestReplicaRedirector`).
* ``full-replication`` — Section 4's "trivial solution": every object
  everywhere, no dynamics.

ADR (:class:`~repro.baselines.adr.AdrSystem`) is deliberately *not* a
registry strategy: it is a different system class with its own logical
tree, not a :class:`~repro.core.protocol.HostingSystem` variant, so the
scenario runner cannot host it.  :func:`~repro.baselines.adr.run_adr`
builds and drives it under a scenario's demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.baselines.adr import AdrSystem, LogicalTree, run_adr
from repro.baselines.closest import ClosestReplicaRedirector
from repro.baselines.full_replication import replicate_everywhere
from repro.baselines.round_robin import RoundRobinRedirector
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import HostingSystem
    from repro.scenarios.config import ScenarioConfig


@dataclass(frozen=True)
class Strategy:
    """One named placement/distribution strategy the runner can host.

    ``overrides`` are top-level :class:`ScenarioConfig` field values the
    runner applies before building the system (plain tuples, applied via
    ``config.replace`` — build-time fields like ``dynamic`` and
    ``distribution`` only).  ``initial_placement`` replaces
    ``initialize_round_robin`` on the freshly built system.
    """

    name: str
    description: str
    overrides: tuple[tuple[str, object], ...] = ()
    initial_placement: (
        Callable[["HostingSystem", "ScenarioConfig"], None] | None
    ) = None


def _full_replication(system: "HostingSystem", config: "ScenarioConfig") -> None:
    replicate_everywhere(system)


#: Registry: strategy name -> :class:`Strategy`.  Resolution order for a
#: run: apply ``overrides``, build, run ``initial_placement`` (else
#: round-robin).
STRATEGIES: dict[str, Strategy] = {
    strategy.name: strategy
    for strategy in (
        Strategy(
            name="paper",
            description="the paper's full dynamic replication protocol",
        ),
        Strategy(
            name="static",
            description="initial round-robin placement, frozen",
            overrides=(("dynamic", False),),
        ),
        Strategy(
            name="round-robin",
            description="dynamic protocol, proximity-oblivious redirection",
            overrides=(("distribution", "round-robin"),),
        ),
        Strategy(
            name="closest",
            description="dynamic protocol, always-closest redirection",
            overrides=(("distribution", "closest"),),
        ),
        Strategy(
            name="full-replication",
            description="every object on every server, frozen",
            overrides=(("dynamic", False),),
            initial_placement=_full_replication,
        ),
    )
}


def resolve_strategy(name: str) -> Strategy:
    """Look up a strategy by name; raise with the available names."""
    try:
        return STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ConfigurationError(
            f"unknown strategy {name!r} (known: {known})"
        ) from None


__all__ = [
    "AdrSystem",
    "ClosestReplicaRedirector",
    "LogicalTree",
    "RoundRobinRedirector",
    "STRATEGIES",
    "Strategy",
    "replicate_everywhere",
    "resolve_strategy",
    "run_adr",
]
