"""Sweep specification: a scenario grid, expanded deterministically.

A :class:`SweepSpec` names everything a multi-run experiment needs — a
base :class:`~repro.scenarios.config.ScenarioConfig`, a seed list (or a
count derived from a root seed via :func:`repro.sim.rng.derive_seed`),
and a set of parameter *points*, each a dict of dotted-key overrides
(``{"protocol.placement_interval": 50.0}``).  ``runs()`` expands the
spec into a flat, stably-ordered tuple of :class:`RunSpec`, one per
point x seed; the expansion is pure, so every process of a worker pool
agrees on run indices, seeds and configs without any coordination.

``SweepSpec.grid`` is the convenience constructor for full cartesian
grids (axis values are combined point-major, keys in sorted order).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.schema import apply_overrides, hash_payload
from repro.sim.rng import derive_seed

#: Override value types a spec may carry (JSON-representable scalars).
Scalar = bool | int | float | str | None

Overrides = Mapping[str, Scalar]


def point_label(overrides: Overrides) -> str:
    """Human-readable label for one parameter point (``"base"`` if empty).

    Uses the leaf of each dotted key; sorted for stability.
    """
    if not overrides:
        return "base"
    return ",".join(
        f"{key.rpartition('.')[2]}={overrides[key]}" for key in sorted(overrides)
    )


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One fully-resolved run of a sweep."""

    #: Position in the sweep's expansion order (manifest sort key).
    index: int
    #: The scenario seed this run uses (already applied to ``config``).
    seed: int
    #: The parameter overrides of this run's point (already applied).
    overrides: tuple[tuple[str, Scalar], ...]
    #: The exact config :func:`~repro.scenarios.runner.run_scenario` gets.
    config: ScenarioConfig

    @property
    def label(self) -> str:
        """``<point>/seed=<seed>`` — unique within a sweep."""
        return f"{self.point}/seed={self.seed}"

    @property
    def point(self) -> str:
        return point_label(dict(self.overrides))


@dataclass(slots=True)
class SweepSpec:
    """A scenario x seed x parameter-override grid, not yet run."""

    base: ScenarioConfig
    #: Explicit seeds.  Empty with ``num_seeds == 0`` means "the base
    #: config's own seed" (a plain single-seed sweep).
    seeds: tuple[int, ...] = ()
    #: When ``seeds`` is empty, derive this many seeds from ``root_seed``.
    num_seeds: int = 0
    root_seed: int = 0
    #: Parameter points; each is one dict of dotted-key overrides.  The
    #: default single empty point runs the base config unmodified.
    points: tuple[dict[str, Scalar], ...] = field(default_factory=lambda: ({},))
    name: str = "sweep"

    def __post_init__(self) -> None:
        self.seeds = tuple(int(s) for s in self.seeds)
        self.points = tuple(dict(p) for p in self.points)
        if self.num_seeds < 0:
            raise ConfigurationError(f"num_seeds must be >= 0, got {self.num_seeds}")
        if self.seeds and self.num_seeds:
            raise ConfigurationError("give either explicit seeds or num_seeds, not both")

    @classmethod
    def grid(
        cls,
        base: ScenarioConfig,
        axes: Mapping[str, Sequence[Scalar]],
        **kwargs: Any,
    ) -> "SweepSpec":
        """Cartesian product over ``axes`` (dotted key -> values).

        Keys are sorted for a stable expansion order; an axis with no
        values yields an empty sweep (zero points, zero runs).
        """
        keys = sorted(axes)
        combos = itertools.product(*(axes[key] for key in keys))
        points = tuple(dict(zip(keys, combo)) for combo in combos)
        if any(not axes[key] for key in keys):
            points = ()
        return cls(base=base, points=points, **kwargs)

    def resolved_seeds(self) -> tuple[int, ...]:
        """The seed list this sweep actually runs, in order."""
        if self.seeds:
            return self.seeds
        if self.num_seeds:
            return tuple(derive_seed(self.root_seed, i) for i in range(self.num_seeds))
        return (self.base.seed,)

    def runs(self) -> tuple[RunSpec, ...]:
        """Expand to the full run list, point-major then seed order."""
        out: list[RunSpec] = []
        for overrides in self.points:
            config = apply_overrides(self.base, overrides)
            for seed in self.resolved_seeds():
                out.append(
                    RunSpec(
                        index=len(out),
                        seed=seed,
                        overrides=tuple(sorted(overrides.items())),
                        config=config.replace(seed=seed),
                    )
                )
        return tuple(out)

    def spec_hash(self) -> str:
        """Short content hash identifying the sweep (manifest/baseline key).

        Canonical-JSON over the base config, resolved seeds and points;
        any change to what would run changes the hash.  Which fields of
        the base take part is each field's own declaration
        (:func:`repro.schema.hash_payload`).
        """
        payload = {
            "name": self.name,
            "base": hash_payload(self.base),
            "seeds": list(self.resolved_seeds()),
            "points": [dict(sorted(p.items())) for p in self.points],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
