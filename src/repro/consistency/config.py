"""Scenario-level configuration for the Sec. 5 consistency plane.

A :class:`ConsistencyConfig` rides inside
:class:`~repro.scenarios.config.ScenarioConfig` and controls whether a
scenario runs provider writes over the (possibly faulted) RPC layer,
how objects are split across the paper's three update categories, and
which repair machinery (epidemic batching, anti-entropy) is active;
read-repair is always on.  The all-defaults instance means "consistency
plane off" — scenarios built before this module existed are unaffected,
and the sweep spec hash drops the block entirely when it is at defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.schema import flag
from repro.types import Time


def parse_category_mix(text: str) -> tuple[float, ...]:
    """``"c1:c2:c3"`` → the three category fractions (colons, because
    the sweep CLI splits ``--set`` values on commas)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"category mix must be 'c1:c2:c3', got {text!r}")
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise ConfigurationError(
            f"category mix must be numeric, got {text!r}"
        ) from None


@dataclass(frozen=True, slots=True)
class ConsistencyConfig:
    """Knobs for the write path and its repair loops.

    ``category_mix`` is the probability split ``(category1, category2,
    category3)`` objects are assigned to (paper Sec. 5: primary-copy /
    commuting statistics / non-commuting).  It accepts the ``"a:b:c"``
    string of :func:`parse_category_mix` as well as a tuple.
    """

    write_rate: float = field(
        default=0.0,
        metadata=flag(
            "--write-rate",
            "R",
            "provider updates per second across the whole system "
            "(0 disables the write workload)",
        ),
    )
    category_mix: tuple[float, float, float] = field(
        default=(1.0, 0.0, 0.0),
        metadata=flag(
            "--category-mix",
            "C1:C2:C3",
            "object fractions per consistency category, summing to 1, "
            "e.g. 0.8:0.15:0.05",
            parse=parse_category_mix,
        ),
    )
    epidemic_interval: Time | None = field(
        default=None,
        metadata=flag(
            "--epidemic-interval",
            "S",
            "batch category-1 updates and flush every S seconds "
            "(omitted or 0: propagate immediately)",
        ),
    )
    anti_entropy_interval: Time | None = field(
        default=None,
        metadata=flag(
            "--anti-entropy-interval",
            "S",
            "digest-exchange repair round period in seconds "
            "(omitted or 0: no daemon)",
        ),
    )
    #: Replica cap for category-3 (non-commuting) objects.
    non_commuting_replica_limit: int = 1

    def __post_init__(self) -> None:
        mix: Any = self.category_mix
        if isinstance(mix, str):
            mix = parse_category_mix(mix)
        else:
            mix = tuple(float(part) for part in mix)
        if len(mix) != 3:
            raise ConfigurationError(
                f"category mix needs exactly 3 entries, got {self.category_mix!r}"
            )
        if any(part < 0 for part in mix):
            raise ConfigurationError(
                f"category mix entries must be non-negative, got {mix!r}"
            )
        if not math.isclose(sum(mix), 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ConfigurationError(
                f"category mix must sum to 1, got {mix!r}"
            )
        object.__setattr__(self, "category_mix", mix)
        if self.write_rate < 0:
            raise ConfigurationError(
                f"write rate must be non-negative, got {self.write_rate}"
            )
        # 0 means "off" (immediate propagation / no daemon), so a numeric
        # interval axis can include that point.
        for name in ("epidemic_interval", "anti_entropy_interval"):
            value = getattr(self, name)
            if value == 0:
                object.__setattr__(self, name, None)
            elif value is not None and value < 0:
                raise ConfigurationError(
                    f"{name.replace('_', ' ')} must be non-negative, "
                    f"got {value}"
                )
        if self.non_commuting_replica_limit < 1:
            raise ConfigurationError(
                "non-commuting replica limit must be at least 1, got "
                f"{self.non_commuting_replica_limit}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this configuration activates the consistency plane."""
        return (
            self.write_rate > 0
            or self.category_mix != (1.0, 0.0, 0.0)
            or self.epidemic_interval is not None
            or self.anti_entropy_interval is not None
        )

    def replace(self, **changes: Any) -> ConsistencyConfig:
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


__all__ = ["ConsistencyConfig"]
