"""Backbone bandwidth accounting (Figures 6 and 7).

"The bandwidth is determined by summing the number of bytes transmitted
on each hop" — i.e. byte-hops.  The transport meters every send into
integer per-``(bucket, class)`` cells (:meth:`Network.meter_traffic`);
this collector is the read-time view over that table, so the harness can
report both the payload bandwidth trajectory (Figure 6) and the
relocation overhead as a fraction of total traffic (Figure 7) while a
message costs two integer adds.  Byte-hops are integers below 2**53, so
every series and total here is exact whatever the order of sends,
duplicates and fast-lane folds.
"""

from __future__ import annotations

from typing import Iterable

from repro.metrics.collectors import BucketedSeries, TimeSeries
from repro.network.message import OVERHEAD_CLASSES, MessageClass
from repro.network.transport import Network

PAYLOAD_CLASSES = frozenset(MessageClass) - OVERHEAD_CLASSES


class BandwidthCollector:
    """Time-bucketed byte-hop accounting per traffic class."""

    def __init__(self, network: Network, *, bucket: float = 60.0) -> None:
        self.bucket = bucket
        #: The transport's live table: bucket -> class -> [byte_hops, messages].
        self.traffic = network.meter_traffic(bucket)

    def _series(self, classes: Iterable[MessageClass]) -> BucketedSeries:
        """The traffic of ``classes`` folded into one bucketed series."""
        classes = tuple(classes)
        series = BucketedSeries(self.bucket)
        for bucket, cells in self.traffic.items():
            for cls in classes:
                byte_hops, messages = cells[cls]
                if messages:
                    series.bulk_add(bucket, float(byte_hops), messages)
        return series

    def class_series(self, message_class: MessageClass) -> TimeSeries:
        """Byte-hops per bucket for one traffic class."""
        return self._series((message_class,)).sums()

    def total_series(self) -> TimeSeries:
        """Byte-hops per bucket over all traffic classes."""
        return self._series(MessageClass).sums()

    def payload_series(self) -> TimeSeries:
        """Byte-hops per bucket excluding relocation overhead.

        This is the quantity Figure 6 plots: the traffic due to servicing
        client requests (responses dominate; requests are small).
        """
        return self._series(PAYLOAD_CLASSES).sums()

    def overhead_series(self) -> TimeSeries:
        """Byte-hops per bucket for relocation + control traffic."""
        return self._series(OVERHEAD_CLASSES).sums()

    def overhead_fraction_series(self) -> TimeSeries:
        """Overhead byte-hops as a fraction of total, per bucket (Fig. 7)."""
        total = dict(self.total_series().items())
        series = TimeSeries()
        for time, overhead in self.overhead_series().items():
            denominator = total.get(time, 0.0)
            series.append(time, overhead / denominator if denominator else 0.0)
        return series

    def total_byte_hops(self) -> float:
        return self._series(MessageClass).total()

    def overhead_byte_hops(self) -> float:
        return self._series(OVERHEAD_CLASSES).total()

    def overhead_fraction(self) -> float:
        """Run-wide overhead share of total traffic."""
        total = self.total_byte_hops()
        return self.overhead_byte_hops() / total if total else 0.0
