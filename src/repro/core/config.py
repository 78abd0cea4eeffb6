"""Protocol configuration (tunable parameters of Sections 3–4).

Defaults reproduce Table 1 of the paper's simulation study (the low-load
variant: watermarks 90/80).  :meth:`ProtocolConfig.validate` enforces the
paper's stability constraints; an invalid configuration raises
:class:`~repro.errors.ConfigurationError` at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError
from repro.load.bounds import validate_thresholds
from repro.schema import flag


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """All tunable parameters of the replication protocol.

    Attributes
    ----------
    high_watermark, low_watermark:
        Host load watermarks ``hw``/``lw`` in requests/sec.  A host above
        ``hw`` enters offloading mode and stays there until below ``lw``.
    deletion_threshold:
        ``u`` (requests/sec): an affinity unit whose unit access rate
        falls below ``u`` may be dropped.
    replication_threshold:
        ``m`` (requests/sec): replication is considered only above ``m``.
        Theorem 5 requires ``4u < m``; the paper uses ``m = 6u``.
    migr_ratio:
        Minimum fraction of an object's requests a candidate must appear
        on (via preference paths) to receive a geo-migration.  Must exceed
        0.5 so objects cannot ping-pong; the paper uses 0.6.
    repl_ratio:
        The analogous fraction for geo-replication; must be below
        ``migr_ratio`` "for replication to ever take place".  The paper
        uses 1/6.
    distribution_constant:
        The factor (2 in the paper) by which the closest replica's unit
        request count may exceed the minimum before the least-requested
        replica is chosen instead (Figure 2).
    placement_interval:
        Seconds between runs of DecidePlacement on each host (paper: 100).
    measurement_interval:
        The load measurement interval in seconds (paper: 20).
    relocation_freeze_intervals:
        Footnote 2 of the paper: "when frequent object relocations make
        most of measurement intervals contain a relocation event, a host
        can always periodically halt relocations to take fresh load
        measurements."  When set, a host whose load estimator has been
        dirty for this many consecutive measurement intervals skips its
        placement rounds (halting relocations) until one clean interval
        restores a trustworthy measurement.  ``None`` (default) disables
        the mechanism, matching the base protocol.
    report_expiry_intervals:
        Load-board reports older than this many measurement intervals
        are ignored by recipient discovery, so a crashed host's stale
        (often idle-looking) report stops advertising it as an offload
        recipient.  Healthy hosts re-report every interval, so any value
        of at least 2 never filters a live host and leaves fault-free
        runs unchanged.  ``None`` disables expiry (the seed behaviour).
    """

    high_watermark: float = field(
        default=90.0,
        metadata=flag(
            "--high-watermark", "RPS", "offloading high watermark in requests/sec"
        ),
    )
    low_watermark: float = field(
        default=80.0,
        metadata=flag(
            "--low-watermark", "RPS", "offloading low watermark in requests/sec"
        ),
    )
    deletion_threshold: float = 0.03
    replication_threshold: float = 0.18
    migr_ratio: float = 0.6
    repl_ratio: float = 1.0 / 6.0
    distribution_constant: float = 2.0
    placement_interval: float = field(
        default=100.0,
        metadata=flag("--placement-interval", "S", "placement interval in seconds"),
    )
    measurement_interval: float = field(
        default=20.0,
        metadata=flag(
            "--measurement-interval", "S", "load measurement interval in seconds"
        ),
    )
    relocation_freeze_intervals: int | None = None
    report_expiry_intervals: int | None = 3

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the paper's constraints; raise ConfigurationError if violated."""
        if self.low_watermark <= 0 or self.high_watermark <= 0:
            raise ConfigurationError("watermarks must be positive")
        if self.low_watermark >= self.high_watermark:
            raise ConfigurationError(
                "low watermark must be below high watermark, got "
                f"lw={self.low_watermark}, hw={self.high_watermark}"
            )
        validate_thresholds(self.deletion_threshold, self.replication_threshold)
        if not 0.5 < self.migr_ratio <= 1.0:
            raise ConfigurationError(
                f"MIGR_RATIO must be in (0.5, 1] to prevent object "
                f"ping-pong, got {self.migr_ratio}"
            )
        if not 0.0 < self.repl_ratio < self.migr_ratio:
            raise ConfigurationError(
                "REPL_RATIO must be positive and below MIGR_RATIO, got "
                f"repl={self.repl_ratio}, migr={self.migr_ratio}"
            )
        if self.distribution_constant <= 1.0:
            raise ConfigurationError(
                "distribution constant must exceed 1 (1 means pure "
                f"least-requested), got {self.distribution_constant}"
            )
        if self.placement_interval <= 0 or self.measurement_interval <= 0:
            raise ConfigurationError("intervals must be positive")
        if (
            self.relocation_freeze_intervals is not None
            and self.relocation_freeze_intervals < 1
        ):
            raise ConfigurationError(
                "relocation_freeze_intervals must be at least 1 when set"
            )
        if (
            self.report_expiry_intervals is not None
            and self.report_expiry_intervals < 2
        ):
            raise ConfigurationError(
                "report_expiry_intervals must be at least 2 when set (a "
                "healthy host's newest report can legitimately be one "
                "interval old)"
            )

    def with_watermarks(self, low: float, high: float) -> "ProtocolConfig":
        """A copy with different watermarks (e.g. the paper's 50/40 run)."""
        return replace(self, low_watermark=low, high_watermark=high)

    def replace(self, **changes: Any) -> "ProtocolConfig":
        """A copy with arbitrary field changes, revalidated."""
        return replace(self, **changes)
