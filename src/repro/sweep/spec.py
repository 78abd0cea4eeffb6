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

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.consistency.config import ConsistencyConfig
from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.sim.rng import derive_seed

#: Override value types a spec may carry (JSON-representable scalars).
Scalar = bool | int | float | str | None

Overrides = Mapping[str, Scalar]


def reject_text(key: str, value: Scalar, held: Any) -> None:
    """Text fits only a field that holds text or a tuple (the colon-mix
    spelling); anywhere else validation would compare it with a number."""
    if isinstance(value, str) and not isinstance(held, (str, tuple)):
        raise ConfigurationError(
            f"override {key}={value!r}: {key} does not take text (it holds {held!r})"
        )


def apply_overrides(config: ScenarioConfig, overrides: Overrides) -> ScenarioConfig:
    """Apply dotted-key overrides to a scenario config, revalidated.

    Top-level keys name :class:`ScenarioConfig` fields; a ``head.tail``
    key descends into a nested dataclass field (``protocol.*`` in
    practice) and rebuilds it via its ``replace``.  Unknown keys raise
    :class:`ConfigurationError` rather than silently creating attributes,
    and so does text for a field holding a number, a flag or ``None``.
    """
    flat: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    config_fields = {f.name for f in dataclasses.fields(config)}
    for key, value in overrides.items():
        head, dot, tail = key.partition(".")
        if head not in config_fields:
            raise ConfigurationError(f"unknown override key {key!r}")
        if not dot:
            reject_text(key, value, getattr(config, head))
            flat[head] = value
            continue
        inner = getattr(config, head)
        if not dataclasses.is_dataclass(inner):
            raise ConfigurationError(
                f"override key {key!r} descends into non-dataclass field {head!r}"
            )
        if tail not in {f.name for f in dataclasses.fields(inner)}:
            raise ConfigurationError(f"unknown override key {key!r}")
        reject_text(key, value, getattr(inner, tail))
        nested.setdefault(head, {})[tail] = value
    for head, changes in nested.items():
        flat[head] = getattr(config, head).replace(**changes)
    return config.replace(**flat) if flat else config


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
        any change to what would run changes the hash.  The verification
        toggle (``check_invariants``) is excluded: it asserts about a run
        without changing its results, and including it would invalidate
        committed baselines whose runs are identical.  Similarly, a
        consistency block at its all-off defaults and an empty partition
        schedule describe exactly the runs that existed before those
        fields did, so both are dropped at their defaults to keep
        pre-existing hashes (and their baselines) valid.  The ``strategy``
        field is likewise dropped at its "paper" default (the value that
        describes every pre-registry run) but hashed when set.
        """
        base = dataclasses.asdict(self.base)
        base.pop("check_invariants", None)
        if base.get("strategy") == "paper":
            base.pop("strategy", None)
        if base.get("consistency") == dataclasses.asdict(ConsistencyConfig()):
            base.pop("consistency", None)
        faults = base.get("faults")
        if faults is not None and not faults.get("partitions"):
            faults.pop("partitions", None)
        payload = {
            "name": self.name,
            "base": base,
            "seeds": list(self.resolved_seeds()),
            "points": [dict(sorted(p.items())) for p in self.points],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
