"""Periodic load reports between hosts (offload recipient discovery).

Figure 5's ``Offload`` begins with "find a host r with load(r) < lw"; the
paper assumes "hosts periodically exchange load reports, so that each
host knows a few probable candidates".  :class:`LoadReportBoard` models
that directory: every host publishes its measured load once per
measurement interval (the hosting system accounts the control traffic),
and an offloading host queries the board for under-loaded candidates,
ordered most-idle first.  Reports may be one interval stale — exactly the
staleness a real gossip scheme would exhibit — which is why the actual
offload request is still re-validated against the candidate's current
upper-bound load estimate before any transfer.

Reports *expire*: a crashed host stops reporting, and without expiry its
last (often enticingly idle) report would keep advertising it as an
offload recipient for the rest of the run.  Queries that pass ``now``
ignore reports older than the board's expiry horizon — by default a few
report intervals, so a healthy host (which re-reports every interval)
is never filtered and fault-free behaviour is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ProtocolConfig


def expiry_from_protocol(config: "ProtocolConfig") -> float | None:
    """The seconds-based report expiry a protocol config implies.

    The single translation from the protocol's interval-denominated
    ``report_expiry_intervals`` to the board's seconds-denominated
    ``expiry``.  Both planes — the simulator's
    :class:`~repro.core.protocol.HostingSystem` and the live
    :class:`~repro.live.redirector.LiveRedirector` — must build their
    boards through this helper so the expiry horizon (and therefore the
    inclusive boundary semantics of :meth:`LoadReportBoard.is_fresh`)
    cannot drift between them.
    """
    if config.report_expiry_intervals is None:
        return None
    return config.report_expiry_intervals * config.measurement_interval


class LoadReportBoard:
    """Latest reported load per host, with staleness expiry.

    ``expiry`` is the maximum report age, in seconds, a query passing
    ``now`` will still trust; ``None`` disables expiry (the seed
    behaviour).  Queries that omit ``now`` never filter.

    Boundary semantics (pinned): expiry is **inclusive** — a report aged
    *exactly* ``expiry`` seconds is still fresh; only strictly older
    reports are filtered (:meth:`is_fresh`, which :meth:`candidates`
    applies).  Inclusive is the behaviour-preserving choice: a healthy
    host re-reports every measurement interval, and with the default
    expiry of ``report_expiry_intervals`` x ``measurement_interval`` an
    exact-age report only occurs when a query instant coincides with a
    report instant — treating it stale would spuriously filter a live
    host whose report is about to be refreshed at that very tick.
    """

    __slots__ = ("_reports", "expiry")

    def __init__(self, *, expiry: float | None = None) -> None:
        if expiry is not None and expiry <= 0:
            raise ConfigurationError(
                f"report expiry must be positive, got {expiry}"
            )
        self._reports: dict[NodeId, tuple[Time, float]] = {}
        self.expiry = expiry

    def report(self, node: NodeId, load: float, time: Time) -> None:
        """Record a host's periodic load report."""
        self._reports[node] = (time, load)

    def reported_load(self, node: NodeId) -> float | None:
        """The last load a host reported, or ``None`` if never reported."""
        entry = self._reports.get(node)
        return entry[1] if entry is not None else None

    def report_time(self, node: NodeId) -> Time | None:
        """When a host last reported, or ``None`` if never."""
        entry = self._reports.get(node)
        return entry[0] if entry is not None else None

    def is_fresh(self, time: Time, now: Time | None) -> bool:
        """Whether a report stamped ``time`` is trusted at ``now``.

        Inclusive boundary: ``now - time == expiry`` is fresh (see the
        class docstring for why).  ``now=None`` (query doesn't filter) or
        ``expiry=None`` (expiry disabled) always trust.
        """
        return now is None or self.expiry is None or now - time <= self.expiry

    def candidates(
        self, *, exclude: NodeId | None, now: Time | None = None
    ) -> list[tuple[NodeId, float]]:
        """All freshly-reporting hosts (except ``exclude``) most idle
        first, ties broken by node id.

        Each candidate is judged against its own low watermark
        (heterogeneous hosts), by :func:`repro.core.offload.find_recipient`.
        """
        eligible = [
            (load, node)
            for node, (time, load) in self._reports.items()
            if node != exclude and self.is_fresh(time, now)
        ]
        eligible.sort()
        return [(node, load) for load, node in eligible]

    def __len__(self) -> int:
        return len(self._reports)
